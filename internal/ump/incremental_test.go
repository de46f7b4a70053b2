package ump

// The incremental re-solve contract (PR 10): solving a corpus version with
// a ComponentCache attached must produce exactly the plan a cold solve
// produces — byte-identical counts, identical objectives — while
// re-solving only the components an append actually changed. These tests
// pin the equality per objective and the reuse accounting.

import (
	"math"
	"reflect"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/partition"
	"dpslog/internal/searchlog"
)

// appendToOneComponent folds extra rows into exactly one connected
// component of pre: two existing users of the first component gain count
// on an existing pair of that component (so the component stays connected
// and no pair turns unique). It returns the new version and the number of
// components of pre.
func appendToOneComponent(t *testing.T, pre *searchlog.Log) (*searchlog.Log, int) {
	t.Helper()
	comps := partition.Decompose(pre)
	if len(comps) < 2 {
		t.Fatalf("profile decomposes into %d component(s); need ≥ 2", len(comps))
	}
	c0 := comps[0].Log
	p := c0.Pair(0)
	if len(p.Entries) < 2 {
		t.Fatalf("component 0 pair 0 has %d holders; need ≥ 2", len(p.Entries))
	}
	counts := pre.UserCounts()
	key := p.Key()
	counts[c0.User(p.Entries[0].User).ID][key] += 3
	counts[c0.User(p.Entries[1].User).ID][key] += 2
	v2, err := searchlog.BuildFromUserCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	v2pre, _ := searchlog.Preprocess(v2)
	return v2pre, len(comps)
}

func TestIncrementalPlanEquality(t *testing.T) {
	pre := decompCorpus(t, "small-sharded", 1)
	v2, numComps := appendToOneComponent(t, pre)
	params := decompParams

	solves := map[string]func(l *searchlog.Log, o Options) (*Plan, error){
		"O-UMP": func(l *searchlog.Log, o Options) (*Plan, error) {
			return MaxOutputSize(l, params, o)
		},
		"D-UMP": func(l *searchlog.Log, o Options) (*Plan, error) {
			return Diversity(l, params, o)
		},
		"F-UMP": func(l *searchlog.Log, o Options) (*Plan, error) {
			return FrequentSupport(l, params, 0.0002, 50, o)
		},
		"C-UMP": func(l *searchlog.Log, o Options) (*Plan, error) {
			return Combined(l, params, 0.0002, CombinedWeights{SizeWeight: 1, DistanceWeight: 1}, o)
		},
	}
	for label, solve := range solves {
		t.Run(label, func(t *testing.T) {
			cache := NewComponentCache(0)
			warm := Options{Comp: cache, Parallelism: 1}

			v1plan, err := solve(pre, warm)
			if err != nil {
				t.Fatal(err)
			}
			if v1plan.Reused != 0 {
				t.Fatalf("first solve reused %d components from an empty cache", v1plan.Reused)
			}

			inc, err := solve(v2, warm)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := solve(v2, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}

			// The tentpole equality: the incremental plan is byte-identical
			// to the cold plan for the new version.
			if !reflect.DeepEqual(inc.Counts, cold.Counts) {
				t.Errorf("incremental counts diverge from cold solve")
			}
			if inc.OutputSize != cold.OutputSize || inc.Objective != cold.Objective {
				t.Errorf("incremental objective (%g, size %d) != cold (%g, size %d)",
					inc.Objective, inc.OutputSize, cold.Objective, cold.OutputSize)
			}
			if math.Abs(inc.RelaxationObjective-cold.RelaxationObjective) > 1e-9 {
				t.Errorf("incremental relaxation %g != cold %g", inc.RelaxationObjective, cold.RelaxationObjective)
			}
			if err := dp.VerifyLog(v2, params, inc.Counts); err != nil {
				t.Errorf("incremental plan fails Theorem-1 audit: %v", err)
			}

			// Reuse accounting: the append touched one component, so every
			// other component's cacheable solve must have been served from
			// cache (for O-UMP/D-UMP the whole component plan; for F/C-UMP
			// the phase-1 λ solve — phase 2 is globally coupled and must
			// re-solve everywhere).
			if want := numComps - 1; inc.Reused != want {
				t.Errorf("incremental solve reused %d components, want %d", inc.Reused, want)
			}
			if inc.Components != cold.Components {
				t.Errorf("component count diverged: %d vs %d", inc.Components, cold.Components)
			}
			_ = v1plan
		})
	}
}

// TestComponentCacheKeysPinParameters asserts a shared cache never serves
// a plan across different solve identities: a different ε, a different
// solver, or the box ablation each miss.
func TestComponentCacheKeysPinParameters(t *testing.T) {
	pre := decompCorpus(t, "tiny-sharded", 1)
	cache := NewComponentCache(0)

	if _, err := MaxOutputSize(pre, decompParams, Options{Comp: cache, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	// Same params: full reuse.
	p2, err := MaxOutputSize(pre, decompParams, Options{Comp: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Reused != p2.Components {
		t.Fatalf("identical re-solve reused %d/%d components", p2.Reused, p2.Components)
	}
	// Different ε: no reuse.
	other := dp.Params{Eps: math.Log(4), Delta: decompParams.Delta}
	p3, err := MaxOutputSize(pre, other, Options{Comp: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p3.Reused != 0 {
		t.Fatalf("ε change still reused %d components", p3.Reused)
	}
	// Ablation flag: no reuse (the constraint system differs).
	p4, err := MaxOutputSize(pre, decompParams, Options{Comp: cache, Parallelism: 1, NoBoxConstraint: true})
	if err != nil {
		t.Fatal(err)
	}
	if p4.Reused != 0 {
		t.Fatalf("NoBoxConstraint change still reused %d components", p4.Reused)
	}
	// D-UMP under two solvers: the solver name is part of the key.
	if _, err := Diversity(pre, decompParams, Options{Comp: cache, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	d2, err := Diversity(pre, decompParams, Options{Comp: cache, Parallelism: 1, Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reused != 0 {
		t.Fatalf("solver change still reused %d components", d2.Reused)
	}
}

// TestComponentCacheDetachesPlans asserts that mutating a plan served from
// the cache cannot corrupt the cached entry (releases hand counts to
// noise/projection stages that write in place).
func TestComponentCacheDetachesPlans(t *testing.T) {
	pre := decompCorpus(t, "tiny-sharded", 1)
	cache := NewComponentCache(0)
	p1, err := MaxOutputSize(pre, decompParams, Options{Comp: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), p1.Counts...)
	for i := range p1.Counts {
		p1.Counts[i] = -999
	}
	p2, err := MaxOutputSize(pre, decompParams, Options{Comp: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2.Counts, want) {
		t.Fatal("cached plan was corrupted by caller mutation")
	}
}

// TestFrequentSupportConnectedSolvesOneLP: on a connected log F-UMP skips
// the per-component λ phase (one component takes all of |O|), so even with
// a component cache attached it solves exactly the F-UMP LP, reuses
// nothing, and returns the cache-less plan.
func TestFrequentSupportConnectedSolvesOneLP(t *testing.T) {
	pre := decompCorpus(t, "tiny", 1)
	lam, err := MaxOutputSize(pre, decompParams, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lam.Components != 1 || lam.OutputSize < 2 {
		t.Fatalf("tiny corpus: %d components, λ %d; want a connected log with λ ≥ 2", lam.Components, lam.OutputSize)
	}
	size := lam.OutputSize / 2
	cold, err := FrequentSupport(pre, decompParams, 0.002, size, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := FrequentSupport(pre, decompParams, 0.002, size, Options{Comp: NewComponentCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.LPSolves != 1 {
		t.Errorf("connected F-UMP with a component cache solved %d LPs, want 1", cached.Stats.LPSolves)
	}
	if cached.Reused != 0 {
		t.Errorf("connected F-UMP reused %d components, want 0", cached.Reused)
	}
	if !reflect.DeepEqual(cached.Counts, cold.Counts) || cached.Objective != cold.Objective {
		t.Errorf("cached F-UMP plan (objective %g) differs from the cache-less one (%g)", cached.Objective, cold.Objective)
	}
}
