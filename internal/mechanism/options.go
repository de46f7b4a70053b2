// Package mechanism defines the pluggable sanitization-mechanism API: one
// interface every release mechanism implements (the paper's UMP pipeline,
// the Korolova-style Laplace baseline, ZEALOUS, and a local-DP randomized
// responder), a registry keyed by wire name, and the shared Options /
// Release vocabulary. The HTTP server, the ledger, the experiment harness
// and the benchmarks all dispatch through this package, so adding a
// mechanism variant is a single-package change: implement Mechanism,
// register it, and every serving / accounting / comparison path picks it
// up.
package mechanism

import (
	"fmt"
	"slices"
	"strings"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
)

// Objective selects the utility-maximizing problem the UMP mechanism
// solves.
type Objective int

const (
	// ObjectiveOutputSize maximizes the output size Σ x_ij (O-UMP, §5.1).
	ObjectiveOutputSize Objective = iota
	// ObjectiveFrequent minimizes the frequent-pair support distances at a
	// fixed output size (F-UMP, §5.2). Requires MinSupport; OutputSize
	// defaults to λ/2.
	ObjectiveFrequent
	// ObjectiveDiversity maximizes the number of distinct retained pairs
	// (D-UMP, §5.3) using the configured BIP solver (default: the paper's
	// SPE heuristic).
	ObjectiveDiversity
	// ObjectiveCombined is the paper's §7 "joint objective" extension: a
	// single LP trading output size against frequent-pair support fidelity
	// with no fixed |O|. Requires MinSupport; weighted by SizeWeight and
	// DistanceWeight (both default to 1 when zero).
	ObjectiveCombined
	// ObjectiveQueryDiversity maximizes the number of distinct *queries*
	// retained — the query-level variant §5.3 sketches.
	ObjectiveQueryDiversity
)

func (o Objective) String() string {
	switch o {
	case ObjectiveOutputSize:
		return "output-size"
	case ObjectiveFrequent:
		return "frequent-pairs"
	case ObjectiveDiversity:
		return "diversity"
	case ObjectiveCombined:
		return "combined"
	case ObjectiveQueryDiversity:
		return "query-diversity"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective maps a name to an Objective. Both the canonical String
// forms ("output-size", "frequent-pairs", …) and the short CLI forms
// ("size", "frequent") are accepted; the empty string is ObjectiveOutputSize.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "size", "output-size":
		return ObjectiveOutputSize, nil
	case "frequent", "frequent-pairs":
		return ObjectiveFrequent, nil
	case "diversity":
		return ObjectiveDiversity, nil
	case "combined":
		return ObjectiveCombined, nil
	case "query-diversity":
		return ObjectiveQueryDiversity, nil
	}
	return 0, fmt.Errorf("dpslog: unknown objective %q (valid: size, frequent, diversity, combined, query-diversity)", s)
}

// MarshalText renders the objective by its canonical name, so Options
// round-trip through JSON with readable objective values.
func (o Objective) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses any name ParseObjective accepts.
func (o *Objective) UnmarshalText(b []byte) error {
	v, err := ParseObjective(string(b))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// Options configure a sanitization run. The JSON field names are the wire
// format of the slserve HTTP API (see internal/server). Most fields
// parameterize the UMP mechanism; the aggregate mechanisms (laplace,
// zealous, localdp) read only Epsilon, Delta, D and Seed and zero the rest
// in their canonical form.
type Options struct {
	// Mechanism names the release mechanism: "" or "ump" (the paper's
	// Algorithm 1, the default), "laplace", "zealous" or "localdp". The
	// canonical form of UMP options leaves this empty so pre-mechanism
	// cache and ledger keys remain byte-identical.
	Mechanism string `json:"mechanism,omitzero"`
	// Epsilon is ε > 0. The paper parameterizes experiments by e^ε; use
	// math.Log to convert.
	Epsilon float64 `json:"epsilon"`
	// Delta is δ ∈ (0, 1), the bound on the probability of producing an
	// output that breaches ε-differential privacy (Definition 2). The
	// laplace mechanism reads it as the per-item failure mass δ̂ behind its
	// release threshold; localdp is pure ε-local DP and requires 0.
	Delta float64 `json:"delta"`
	// Objective selects the utility-maximizing problem (default
	// ObjectiveOutputSize). In JSON it is a name: "output-size",
	// "frequent-pairs", "diversity", "combined" or "query-diversity".
	Objective Objective `json:"objective,omitzero"`
	// MinSupport is the frequent-pair threshold s for ObjectiveFrequent
	// (pair is frequent when c_ij/|D| ≥ s).
	MinSupport float64 `json:"min_support,omitzero"`
	// OutputSize is the fixed |O| for ObjectiveFrequent; 0 picks λ/2 where λ
	// is the O-UMP maximum for the same parameters.
	OutputSize int `json:"output_size,omitzero"`
	// Solver names the D-UMP BIP solver: spe (default), spe-violated,
	// branchbound, feaspump, rounding or greedy.
	Solver string `json:"solver,omitzero"`
	// SizeWeight and DistanceWeight balance ObjectiveCombined's joint
	// objective; both default to 1 when left zero.
	SizeWeight     float64 `json:"size_weight,omitzero"`
	DistanceWeight float64 `json:"distance_weight,omitzero"`
	// Seed drives the multinomial sampling (and the Laplace noise when
	// end-to-end mode is on). Runs are deterministic in the seed.
	Seed uint64 `json:"seed,omitzero"`
	// Parallelism bounds the concurrent connected-component solves of the
	// optimization step (0 = GOMAXPROCS, 1 = sequential). The sanitized
	// output is invariant in it — components of the user–pair graph are
	// solved independently and stitched deterministically — so it tunes
	// wall-clock only. See DESIGN.md §6.
	Parallelism int `json:"parallelism,omitzero"`

	// EndToEnd enables §4.2: Laplace noise Lap(D/EpsPrime) is added to the
	// optimal counts (making the count computation itself differentially
	// private) and the noisy plan is projected back into the Theorem-1
	// polytope.
	EndToEnd bool `json:"end_to_end,omitzero"`
	// D is the §4.2 count sensitivity bound (required > 0 when EndToEnd).
	// The aggregate mechanisms reuse it as their per-user contribution
	// bound: pairs kept per user for laplace/zealous (0 means 20) and
	// reported pairs per user for localdp (0 means 1).
	D int `json:"d,omitzero"`
	// EpsPrime is the §4.2 privacy budget ε′ of the count-computation step
	// (required > 0 when EndToEnd).
	EpsPrime float64 `json:"eps_prime,omitzero"`
	// BoundSensitivity additionally runs §4.2's preprocessing procedure
	// before optimizing (EndToEnd only): every user log whose removal would
	// shift any pair's optimal count by more than D is dropped, enforcing
	// the sensitivity bound the Laplace scale assumes. Costs one solve per
	// user log — quadratic; intended for small corpora, exactly as the
	// paper treats it.
	BoundSensitivity bool `json:"bound_sensitivity,omitzero"`

	// NoBoxConstraint drops the x_ij ≤ c_ij cap (ablation benchmarks only;
	// see DESIGN.md §2).
	NoBoxConstraint bool `json:"no_box_constraint,omitzero"`

	// Comp attaches a component-plan cache to the UMP solves, making
	// re-solves after corpus appends incremental (only changed connected
	// components re-solve; see CompCache). It is runtime state, not
	// configuration: never serialized, cleared by Canonical, and ignored by
	// the aggregate mechanisms.
	Comp *CompCache `json:"-"`
}

// Canonical returns the options with irrelevant fields zeroed and defaults
// made explicit, so that configurations which run identically compare (and
// hash) identically. The normalization is mechanism-specific — it
// dispatches through the registry — and an unknown mechanism name returns
// the options unchanged (Validate is where the error surfaces). The
// server's plan cache and the ledger's release identity key on the
// canonical form, which is why each mechanism's canonicalization must
// materialize its defaults: requests that run the same mechanism the same
// way must charge the budget once.
func (o Options) Canonical() Options {
	m, err := Get(o.Mechanism)
	if err != nil {
		return o
	}
	return m.Canonical(o)
}

// Validate checks the options for the named mechanism; an unknown
// mechanism name is itself a validation error.
func (o Options) Validate() error {
	m, err := Get(o.Mechanism)
	if err != nil {
		return err
	}
	return m.Validate(o)
}

// CombinedWeights returns the effective ObjectiveCombined weights: the
// configured values, or (1, 1) when both are left zero. Canonical, the
// solve dispatch and the noisy-objective recompute must all agree on this
// defaulting, so it lives in exactly one place.
func (o Options) CombinedWeights() (sizeWeight, distanceWeight float64) {
	if o.SizeWeight == 0 && o.DistanceWeight == 0 {
		return 1, 1
	}
	return o.SizeWeight, o.DistanceWeight
}

// umpCanonical is the UMP mechanism's canonical form: the Solver default
// materializes for the diversity objectives and is cleared elsewhere,
// F-UMP thresholds are cleared outside ObjectiveFrequent/ObjectiveCombined,
// the combined weights default to 1, and the §4.2 fields are cleared unless
// EndToEnd is set.
func umpCanonical(o Options) Options {
	// "ump" and "" are the same mechanism; the canonical spelling is empty
	// so that keys predating the mechanism field stay byte-identical.
	o.Mechanism = ""
	switch o.Objective {
	case ObjectiveDiversity, ObjectiveQueryDiversity:
		if o.Solver == "" {
			o.Solver = "spe"
		}
	default:
		o.Solver = ""
	}
	switch o.Objective {
	case ObjectiveFrequent:
	case ObjectiveCombined:
		o.SizeWeight, o.DistanceWeight = o.CombinedWeights()
		o.OutputSize = 0
	default:
		o.MinSupport, o.OutputSize = 0, 0
	}
	if o.Objective != ObjectiveCombined {
		o.SizeWeight, o.DistanceWeight = 0, 0
	}
	if !o.EndToEnd {
		o.D, o.EpsPrime, o.BoundSensitivity = 0, 0, false
	}
	// Plans (and therefore outputs) are parallelism-invariant, so the
	// canonical form — and the server's plan cache key — ignores it:
	// identical corpora solved at different parallelism levels share one
	// cache entry.
	o.Parallelism = 0
	o.Comp = nil
	return o
}

func umpValidate(o Options) error {
	p := dp.Params{Eps: o.Epsilon, Delta: o.Delta}
	if err := p.Validate(); err != nil {
		return err
	}
	switch o.Objective {
	case ObjectiveOutputSize, ObjectiveDiversity, ObjectiveQueryDiversity:
	case ObjectiveFrequent, ObjectiveCombined:
		if !(o.MinSupport > 0 && o.MinSupport <= 1) {
			return fmt.Errorf("dpslog: %v requires MinSupport in (0, 1], got %g", o.Objective, o.MinSupport)
		}
		if o.OutputSize < 0 {
			return fmt.Errorf("dpslog: OutputSize must be non-negative, got %d", o.OutputSize)
		}
		if o.SizeWeight < 0 || o.DistanceWeight < 0 {
			return fmt.Errorf("dpslog: objective weights must be non-negative")
		}
	default:
		return fmt.Errorf("dpslog: unknown objective %v", o.Objective)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("dpslog: Parallelism must be non-negative (0 = GOMAXPROCS), got %d", o.Parallelism)
	}
	// Fail fast on a bad solver name here rather than deep inside a D-UMP
	// solve. The empty string means the default ("spe").
	if o.Solver != "" && !slices.Contains(bip.Names(), o.Solver) {
		return fmt.Errorf("dpslog: unknown solver %q (valid: %s)", o.Solver, strings.Join(bip.Names(), ", "))
	}
	if o.EndToEnd {
		if o.D <= 0 {
			return fmt.Errorf("dpslog: EndToEnd requires sensitivity bound D > 0, got %d", o.D)
		}
		if !(o.EpsPrime > 0) {
			return fmt.Errorf("dpslog: EndToEnd requires EpsPrime > 0, got %g", o.EpsPrime)
		}
	} else if o.BoundSensitivity {
		return fmt.Errorf("dpslog: BoundSensitivity requires EndToEnd")
	}
	return nil
}

// aggCanonical is the shared canonical form of the aggregate mechanisms:
// only the fields they read survive (ε, δ where meaningful, the
// contribution bound with its default materialized, and the seed).
func aggCanonical(o Options, name string, keepDelta bool, defaultBound int) Options {
	c := Options{Mechanism: name, Epsilon: o.Epsilon, Seed: o.Seed, D: o.D}
	if keepDelta {
		c.Delta = o.Delta
	}
	if c.D == 0 {
		c.D = defaultBound
	}
	return c
}
