package mechanism

import (
	"context"
	"math"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// contractCase is one registered mechanism's base options plus variants
// that differ only in what the mechanism's canonical form discards: its
// spelling, parallelism, fields it ignores, and defaults left implicit.
type contractCase struct {
	base     Options
	variants map[string]Options
}

// contractCases returns the case table, keyed by mechanism name.
func contractCases() map[string]contractCase {
	ln2 := math.Log(2)
	ump := Options{Epsilon: ln2, Delta: 0.5, Seed: 3}
	cases := map[string]contractCase{
		"ump": {base: ump, variants: map[string]Options{
			"named ump":   with(ump, func(o *Options) { o.Mechanism = "ump" }),
			"parallelism": with(ump, func(o *Options) { o.Parallelism = 4 }),
			"ignored fields": with(ump, func(o *Options) {
				o.MinSupport, o.OutputSize = 0.05, 7
				o.SizeWeight, o.DistanceWeight = 2, 3
				o.Solver = "greedy"
				o.D, o.EpsPrime = 5, 0.3
			}),
		}},
	}
	// Each aggregate mechanism's delta and documented default contribution
	// bound (Options.D), so a variant that leaves D zero canonicalizes onto
	// the base. ε = 5 is large enough for ZEALOUS's thresholds to release
	// rows on tiny.
	for name, agg := range map[string]struct {
		delta float64
		bound int
	}{"laplace": {0.001, 20}, "zealous": {0.25, 20}, "localdp": {0, 1}} {
		base := Options{Mechanism: name, Epsilon: 5, Delta: agg.delta, D: agg.bound, Seed: 3}
		cases[name] = contractCase{base: base, variants: map[string]Options{
			"parallelism": with(base, func(o *Options) { o.Parallelism = 4 }),
			"ignored fields": with(base, func(o *Options) {
				o.Objective, o.MinSupport, o.OutputSize = ObjectiveFrequent, 0.05, 7
				o.Solver, o.NoBoxConstraint = "greedy", true
				o.EndToEnd, o.EpsPrime, o.BoundSensitivity = true, 0.3, true
			}),
			"default bound": with(base, func(o *Options) { o.D = 0 }),
		}}
	}
	return cases
}

func with(o Options, edit func(*Options)) Options {
	edit(&o)
	return o
}

func tinyLog(t *testing.T) *searchlog.Log {
	t.Helper()
	p, err := gen.Profiles("tiny")
	if err != nil {
		t.Fatal(err)
	}
	l, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCanonicalContract pins the Mechanism contract the server's release
// identity rests on, for every registered mechanism: Canonical is
// idempotent and drops the runtime component cache, and options with equal
// canonical forms release byte-identical data.
func TestCanonicalContract(t *testing.T) {
	in := tinyLog(t)
	cases := contractCases()
	for _, name := range Names() {
		tc, ok := cases[name]
		if !ok {
			t.Fatalf("registered mechanism %q has no contract case; add one", name)
		}
		t.Run(name, func(t *testing.T) {
			m, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			canon := m.Canonical(tc.base)
			if again := m.Canonical(canon); again != canon {
				t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", canon, again)
			}
			withComp := tc.base
			withComp.Comp = NewCompCache(0)
			if c := m.Canonical(withComp); c.Comp != nil || c != canon {
				t.Fatalf("Canonical kept the component cache: %+v", c)
			}
			want := release(t, m, in, tc.base)
			for vname, v := range tc.variants {
				if err := v.Validate(); err != nil {
					t.Fatalf("%s: variant is not valid options: %v", vname, err)
				}
				if c := v.Canonical(); c != canon {
					t.Fatalf("%s: canonical form differs:\n%+v\n%+v", vname, c, canon)
				}
				if got := release(t, m, in, v); got != want {
					t.Fatalf("%s: release digest %s, base released %s", vname, got, want)
				}
			}
			// Attaching the component cache is runtime state too: it must
			// not change the release, cold or warm.
			for i := 0; i < 2; i++ {
				if got := release(t, m, in, withComp); got != want {
					t.Fatalf("run %d with a component cache released %s, want %s", i, got, want)
				}
			}
		})
	}
}

func release(t *testing.T, m Mechanism, in *searchlog.Log, opts Options) string {
	t.Helper()
	rel, err := m.Sanitize(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism != m.Name() {
		t.Fatalf("release names mechanism %q, want %q", rel.Mechanism, m.Name())
	}
	if rel.Rows() == 0 {
		t.Fatalf("%s released no rows; equal digests would prove nothing", m.Name())
	}
	return rel.Digest()
}
