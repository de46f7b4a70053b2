package ump

import (
	"math"
	"reflect"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// The decomposition contract, per objective (DESIGN.md §6):
//
//   - every decomposed plan satisfies Theorem 1 exactly (hard invariant);
//   - plans are invariant in Options.Parallelism (hard invariant);
//   - O-UMP, Q-UMP and D-UMP-with-spe-violated reproduce the monolithic
//     objective exactly;
//   - D-UMP with the default SPE heuristic retains at least as many pairs
//     as the monolithic solve (the global heuristic also eliminates columns
//     from satisfied components; the per-component one stops earlier);
//   - C-UMP agrees with the monolithic objective up to the FP round-off of
//     the λ anchor;
//   - F-UMP's λ-proportional allocation is a heuristic: its LP optimum is
//     bounded below by the monolithic one (the allocation rows only shrink
//     the feasible set), and the realized size matches.

var decompParams = dp.Params{Eps: math.Log(2), Delta: 0.5}

func decompCorpus(t testing.TB, profile string, seed uint64) *searchlog.Log {
	t.Helper()
	p, err := gen.Profiles(profile)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := searchlog.Preprocess(raw)
	return pre
}

func mustVerify(t *testing.T, pre *searchlog.Log, plan *Plan, label string) {
	t.Helper()
	if err := dp.VerifyLog(pre, decompParams, plan.Counts); err != nil {
		t.Errorf("%s: decomposed plan fails Theorem-1 audit: %v", label, err)
	}
}

// solveBoth runs one objective monolithically and decomposed (at two
// parallelism levels, asserting plan invariance) and returns (mono, dec).
func solveBoth(t *testing.T, pre *searchlog.Log, label string,
	solve func(opts Options) (*Plan, error)) (*Plan, *Plan) {
	t.Helper()
	mono, err := solve(Options{NoDecompose: true})
	if err != nil {
		t.Fatalf("%s: monolithic solve: %v", label, err)
	}
	dec, err := solve(Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: decomposed solve (p=1): %v", label, err)
	}
	decN, err := solve(Options{Parallelism: 8})
	if err != nil {
		t.Fatalf("%s: decomposed solve (p=8): %v", label, err)
	}
	if !reflect.DeepEqual(dec.Counts, decN.Counts) {
		t.Errorf("%s: plan differs between Parallelism 1 and 8", label)
	}
	if dec.Objective != decN.Objective || dec.OutputSize != decN.OutputSize {
		t.Errorf("%s: objective/size differ between Parallelism 1 and 8", label)
	}
	return mono, dec
}

func TestDecomposedMatchesMonolithic(t *testing.T) {
	profiles := []string{"tiny", "tiny-sharded", "small-sharded"}
	if testing.Short() {
		profiles = []string{"tiny", "tiny-sharded"}
	}
	for _, profile := range profiles {
		for seed := uint64(1); seed <= 3; seed++ {
			pre := decompCorpus(t, profile, seed)
			label := func(obj string) string { return profile + "/" + obj }

			// O-UMP: exactly additive.
			oMono, oDec := solveBoth(t, pre, label("O-UMP"), func(o Options) (*Plan, error) {
				return MaxOutputSize(pre, decompParams, o)
			})
			mustVerify(t, pre, oDec, label("O-UMP"))
			if oDec.OutputSize != oMono.OutputSize || oDec.Objective != oMono.Objective {
				t.Errorf("%s seed %d: decomposed λ %d (obj %g) != monolithic %d (obj %g)",
					label("O-UMP"), seed, oDec.OutputSize, oDec.Objective, oMono.OutputSize, oMono.Objective)
			}

			// D-UMP, default SPE: decomposition dominates the heuristic.
			dMono, dDec := solveBoth(t, pre, label("D-UMP/spe"), func(o Options) (*Plan, error) {
				return Diversity(pre, decompParams, o)
			})
			mustVerify(t, pre, dDec, label("D-UMP/spe"))
			if dDec.OutputSize < dMono.OutputSize {
				t.Errorf("%s seed %d: decomposed retains %d < monolithic %d",
					label("D-UMP/spe"), seed, dDec.OutputSize, dMono.OutputSize)
			}

			// D-UMP, spe-violated: the violated-rows variant is
			// ordering-invariant across components — exact equality.
			vMono, vDec := solveBoth(t, pre, label("D-UMP/spe-violated"), func(o Options) (*Plan, error) {
				o.Solver = "spe-violated"
				return Diversity(pre, decompParams, o)
			})
			mustVerify(t, pre, vDec, label("D-UMP/spe-violated"))
			if vDec.OutputSize != vMono.OutputSize {
				t.Errorf("%s seed %d: decomposed retains %d != monolithic %d",
					label("D-UMP/spe-violated"), seed, vDec.OutputSize, vMono.OutputSize)
			}

			// Q-UMP: global candidate selection + per-component greedy
			// reproduces the monolithic greedy exactly.
			qMono, qDec := solveBoth(t, pre, label("Q-UMP"), func(o Options) (*Plan, error) {
				return QueryDiversity(pre, decompParams, o)
			})
			mustVerify(t, pre, qDec, label("Q-UMP"))
			if qDec.OutputSize != qMono.OutputSize || !reflect.DeepEqual(qDec.Counts, qMono.Counts) {
				t.Errorf("%s seed %d: decomposed plan differs from monolithic (%d vs %d retained)",
					label("Q-UMP"), seed, qDec.OutputSize, qMono.OutputSize)
			}

			// C-UMP: separable given the λ anchor; anchors agree up to
			// simplex round-off.
			w := CombinedWeights{SizeWeight: 1, DistanceWeight: 1}
			cMono, cDec := solveBoth(t, pre, label("C-UMP"), func(o Options) (*Plan, error) {
				return Combined(pre, decompParams, 0.002, w, o)
			})
			mustVerify(t, pre, cDec, label("C-UMP"))
			if diff := math.Abs(cDec.Objective - cMono.Objective); diff > 1e-9*math.Max(1, math.Abs(cMono.Objective)) {
				t.Errorf("%s seed %d: decomposed objective %.15g != monolithic %.15g (diff %g)",
					label("C-UMP"), seed, cDec.Objective, cMono.Objective, diff)
			}

			// F-UMP at |O| = λ/2.
			size := oMono.OutputSize / 2
			if size == 0 {
				continue
			}
			fMono, fDec := solveBoth(t, pre, label("F-UMP"), func(o Options) (*Plan, error) {
				return FrequentSupport(pre, decompParams, 0.002, size, o)
			})
			mustVerify(t, pre, fDec, label("F-UMP"))
			if fDec.OutputSize != fMono.OutputSize {
				t.Errorf("%s seed %d: decomposed size %d != monolithic %d (requested %d)",
					label("F-UMP"), seed, fDec.OutputSize, fMono.OutputSize, size)
			}
			if fDec.OutputSize > size {
				t.Errorf("%s seed %d: decomposed size %d exceeds requested %d", label("F-UMP"), seed, fDec.OutputSize, size)
			}
			// The allocation rows only restrict the LP: the decomposed
			// relaxation can never beat the monolithic one.
			if fDec.RelaxationObjective < fMono.RelaxationObjective-1e-6 {
				t.Errorf("%s seed %d: decomposed LP optimum %g below monolithic %g",
					label("F-UMP"), seed, fDec.RelaxationObjective, fMono.RelaxationObjective)
			}
			if math.IsNaN(fDec.Objective) || fDec.Objective < 0 {
				t.Errorf("%s seed %d: bad realized distance %g", label("F-UMP"), seed, fDec.Objective)
			}
		}
	}
}

// TestMaxCoefFromLogMatchesConstraints: Q-UMP picks its candidates from
// maxCoefFromLog, the histogram shortcut for each pair's largest Theorem-1
// coefficient. It must equal, exactly, the largest coefficient the pair
// carries in the built constraint system.
func TestMaxCoefFromLogMatchesConstraints(t *testing.T) {
	for _, profile := range []string{"tiny", "tiny-sharded", "small-sharded"} {
		for seed := uint64(1); seed <= 3; seed++ {
			pre := decompCorpus(t, profile, seed)
			cons, err := dp.Build(pre, decompParams)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, pre.NumPairs())
			for _, row := range cons.Rows {
				for _, term := range row.Terms {
					want[term.Pair] = math.Max(want[term.Pair], term.Coef)
				}
			}
			for i, got := range maxCoefFromLog(pre) {
				if got != want[i] {
					t.Fatalf("%s seed %d pair %d: maxCoefFromLog %v, constraint rows %v", profile, seed, i, got, want[i])
				}
			}
		}
	}
}

// TestDecomposedComponentsReported checks the Components plumbing.
func TestDecomposedComponentsReported(t *testing.T) {
	pre := decompCorpus(t, "tiny-sharded", 1)
	plan, err := MaxOutputSize(pre, decompParams, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Components != 4 {
		t.Errorf("Components = %d, want 4", plan.Components)
	}
	mono, err := MaxOutputSize(pre, decompParams, Options{NoDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Components != 1 {
		t.Errorf("monolithic Components = %d, want 1", mono.Components)
	}
	connected := decompCorpus(t, "tiny", 1)
	cplan, err := MaxOutputSize(connected, decompParams, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cplan.Components != 1 {
		t.Errorf("connected-corpus Components = %d, want 1", cplan.Components)
	}
}

// TestAllocateProportional pins the largest-remainder allocation.
func TestAllocateProportional(t *testing.T) {
	cases := []struct {
		total int
		caps  []int
		want  []int
	}{
		{10, []int{10, 10}, []int{5, 5}},
		{10, []int{30, 10}, []int{8, 2}}, // 7.5/2.5 floor to 7/2; frac tie → lower index
		{5, []int{1, 100}, []int{0, 5}},  // remainder follows the dominant frac
		{7, []int{2, 2, 2, 100}, []int{0, 0, 0, 7}},
		{12, []int{4, 4, 4}, []int{4, 4, 4}}, // total = capacity
		{0, []int{3, 3}, []int{0, 0}},
		{9, []int{2, 2, 2, 3}, []int{2, 2, 2, 3}}, // caps bind everywhere
	}
	for _, tc := range cases {
		got := allocateProportional(tc.total, tc.caps)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("allocateProportional(%d, %v) = %v, want %v", tc.total, tc.caps, got, tc.want)
		}
		sum := 0
		for i, s := range got {
			sum += s
			if s > tc.caps[i] {
				t.Errorf("allocation %v exceeds cap at %d", got, i)
			}
		}
		capSum := 0
		for _, c := range tc.caps {
			capSum += c
		}
		if want := min(tc.total, capSum); tc.total >= 0 && sum != want {
			t.Errorf("allocation %v sums to %d, want %d", got, sum, want)
		}
	}
}

// FuzzDecompose cross-checks decomposed against monolithic solves on
// randomized corpora, asserting only the hard invariants: Theorem-1
// feasibility, parallelism invariance, SPE dominance, Q-UMP equality and
// the F-UMP relaxation bound.
func FuzzDecompose(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(4), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(2))
	f.Add(uint64(7), uint8(3), uint8(3))
	f.Add(uint64(11), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, shards, objSel uint8) {
		p := gen.Tiny()
		p.Shards = int(shards % 5) // 0..4 markets
		raw, err := gen.Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		pre, _ := searchlog.Preprocess(raw)
		if pre.NumPairs() == 0 {
			return
		}
		solve := func(o Options) (*Plan, error) {
			switch objSel % 5 {
			case 0:
				return MaxOutputSize(pre, decompParams, o)
			case 1:
				return Diversity(pre, decompParams, o)
			case 2:
				return QueryDiversity(pre, decompParams, o)
			case 3:
				return Combined(pre, decompParams, 0.002, CombinedWeights{SizeWeight: 1, DistanceWeight: 1}, o)
			default:
				lam, err := MaxOutputSize(pre, decompParams, Options{NoDecompose: true})
				if err != nil || lam.OutputSize < 2 {
					return nil, err
				}
				return FrequentSupport(pre, decompParams, 0.002, lam.OutputSize/2, o)
			}
		}
		mono, err := solve(Options{NoDecompose: true})
		if err != nil || mono == nil {
			return // degenerate corpus; nothing to cross-check
		}
		dec, err := solve(Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("decomposed solve failed where monolithic succeeded: %v", err)
		}
		decN, err := solve(Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec.Counts, decN.Counts) {
			t.Fatal("plan differs between Parallelism 1 and 4")
		}
		if err := dp.VerifyLog(pre, decompParams, dec.Counts); err != nil {
			t.Fatalf("decomposed plan fails Theorem-1 audit: %v", err)
		}
		switch objSel % 5 {
		case 0:
			if dec.OutputSize != mono.OutputSize {
				t.Fatalf("O-UMP: decomposed λ %d != monolithic %d", dec.OutputSize, mono.OutputSize)
			}
		case 1:
			if dec.OutputSize < mono.OutputSize {
				t.Fatalf("D-UMP: decomposed retains %d < monolithic %d", dec.OutputSize, mono.OutputSize)
			}
		case 2:
			if dec.OutputSize != mono.OutputSize {
				t.Fatalf("Q-UMP: decomposed retains %d != monolithic %d", dec.OutputSize, mono.OutputSize)
			}
		case 4:
			if dec.RelaxationObjective < mono.RelaxationObjective-1e-6 {
				t.Fatalf("F-UMP: decomposed LP optimum %g below monolithic %g",
					dec.RelaxationObjective, mono.RelaxationObjective)
			}
		}
	})
}
