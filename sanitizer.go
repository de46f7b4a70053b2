package dpslog

import (
	"context"
	"fmt"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
	"dpslog/internal/mechanism"
	"dpslog/internal/ump"
)

// The sanitization core lives in internal/mechanism behind the pluggable
// Mechanism interface (PR 9); this file re-exports the UMP vocabulary so
// the public API is unchanged, and keeps the library-level conveniences
// (Sanitizer, Lambda, MinBudget) that predate the interface.

// Objective selects the utility-maximizing problem the sanitizer solves.
type Objective = mechanism.Objective

const (
	// ObjectiveOutputSize maximizes the output size Σ x_ij (O-UMP, §5.1).
	ObjectiveOutputSize = mechanism.ObjectiveOutputSize
	// ObjectiveFrequent minimizes the frequent-pair support distances at a
	// fixed output size (F-UMP, §5.2). Requires MinSupport; OutputSize
	// defaults to λ/2.
	ObjectiveFrequent = mechanism.ObjectiveFrequent
	// ObjectiveDiversity maximizes the number of distinct retained pairs
	// (D-UMP, §5.3) using the configured BIP solver (default: the paper's
	// SPE heuristic).
	ObjectiveDiversity = mechanism.ObjectiveDiversity
	// ObjectiveCombined is the paper's §7 "joint objective" extension: a
	// single LP trading output size against frequent-pair support fidelity
	// with no fixed |O|. Requires MinSupport; weighted by SizeWeight and
	// DistanceWeight (both default to 1 when zero).
	ObjectiveCombined = mechanism.ObjectiveCombined
	// ObjectiveQueryDiversity maximizes the number of distinct *queries*
	// retained — the query-level variant §5.3 sketches.
	ObjectiveQueryDiversity = mechanism.ObjectiveQueryDiversity
)

// ParseObjective maps a name to an Objective. Both the canonical String
// forms ("output-size", "frequent-pairs", …) and the short CLI forms
// ("size", "frequent") are accepted; the empty string is ObjectiveOutputSize.
func ParseObjective(s string) (Objective, error) { return mechanism.ParseObjective(s) }

// SolverNames lists the registered D-UMP BIP solver names in sorted order.
func SolverNames() []string { return bip.Names() }

// Options configure a Sanitizer (and, through the mechanism field, any
// registered release mechanism). The JSON field names are the wire format
// of the slserve HTTP API (see internal/server). Canonical and Validate
// dispatch on the mechanism name; see internal/mechanism.
type Options = mechanism.Options

// Plan summarizes the optimization step of a sanitization run.
type Plan = mechanism.Plan

// SolveStats aggregates solver-depth counters across the LPs behind one
// plan; see ump.SolveStats for field semantics.
type SolveStats = ump.SolveStats

// Result is a completed sanitization.
type Result = mechanism.Result

// CompCache caches solved per-component plans by component content digest,
// making re-solves after corpus appends incremental: only the connected
// components the appended rows changed re-solve, and every untouched
// component's plan is reused byte-identically. See internal/mechanism for
// the exactness contract.
type CompCache = mechanism.CompCache

// NewCompCache creates a component-plan cache bounded to capacity entries
// (≤ 0 selects a default).
func NewCompCache(capacity int) *CompCache { return mechanism.NewCompCache(capacity) }

// Sanitizer runs the paper's Algorithm 1 with a fixed configuration.
type Sanitizer struct {
	opts Options
	comp *CompCache
}

// New validates the options and returns a Sanitizer. The Sanitizer is the
// UMP pipeline's schema-preserving interface; options naming an aggregate
// mechanism are rejected here — use SanitizeMechanism for those.
func New(opts Options) (*Sanitizer, error) {
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	if m.Name() != "ump" {
		return nil, errNotSchemaPreserving(m.Name())
	}
	return &Sanitizer{opts: opts}, nil
}

// Options returns the sanitizer's configuration.
func (s *Sanitizer) Options() Options { return s.opts }

// SetCompCache attaches a component-plan cache to the sanitizer. Pass nil
// to detach. It is safe to share across corpora and versions: the component
// content digest is the reuse identity.
func (s *Sanitizer) SetCompCache(c *CompCache) { s.comp = c }

// Sanitize runs the full pipeline on the input log: preprocess (Theorem 1
// Condition 1), solve the configured utility-maximizing problem (Conditions
// 2/3 as constraints), optionally noise the counts (§4.2), audit the final
// plan, and multinomially sample user-IDs per pair. The input log is not
// modified.
func (s *Sanitizer) Sanitize(in *Log) (*Result, error) {
	return s.SanitizeContext(context.Background(), in)
}

// SanitizeContext is Sanitize with trace propagation: when ctx carries an
// active obs span, the pipeline records child spans per stage (preprocess,
// solve with per-LP detail, noise, audit, sample). Tracing never changes
// the output; a context without a span makes every recording call a no-op.
func (s *Sanitizer) SanitizeContext(ctx context.Context, in *Log) (*Result, error) {
	opts := s.opts
	opts.Comp = s.comp
	return mechanism.RunUMP(ctx, in, opts)
}

// Lambda computes the maximum differentially private output size λ (the
// O-UMP optimum) for a raw input log under (ε, δ) — the quantity the paper
// tabulates in Table 4. The log is preprocessed internally and solved per
// connected component at GOMAXPROCS parallelism; servers multiplexing many
// solves should use LambdaParallelism to bound the fan-out.
func Lambda(in *Log, epsilon, delta float64) (int, error) {
	return LambdaParallelism(in, epsilon, delta, 0)
}

// LambdaParallelism is Lambda with an explicit bound on concurrent
// component solves (0 = GOMAXPROCS, 1 = sequential). The result does not
// depend on parallelism.
func LambdaParallelism(in *Log, epsilon, delta float64, parallelism int) (int, error) {
	pre, _ := Preprocess(in)
	plan, err := ump.MaxOutputSize(pre, dp.Params{Eps: epsilon, Delta: delta}, ump.Options{Parallelism: parallelism})
	if err != nil {
		return 0, err
	}
	return plan.OutputSize, nil
}

// MinBudget is the outcome of the breach-minimizing problem (the paper's
// §7 dual of the utility-maximizing problems).
type MinBudget struct {
	// Epsilon is the smallest per-user privacy exposure supporting the
	// requested output size: the plan satisfies Theorem 1 for any (ε, δ)
	// with ε ≥ Epsilon and ln 1/(1−δ) ≥ Epsilon.
	Epsilon float64
	// Counts is the exposure-minimal plan over Preprocessed's pair indices.
	Counts []int
	// OutputSize is the realized size (flooring may shave the target).
	OutputSize int
	// Preprocessed is the log the plan indexes.
	Preprocessed *Log
}

// MinBudgetForSize solves the privacy breach-minimizing problem: the
// smallest privacy budget under which a release of the target output size
// exists, together with that release's plan. The input is preprocessed
// internally.
func MinBudgetForSize(in *Log, target int) (*MinBudget, error) {
	pre, _ := Preprocess(in)
	res, err := ump.MinPrivacy(pre, target, ump.Options{})
	if err != nil {
		return nil, err
	}
	return &MinBudget{
		Epsilon:      res.Epsilon,
		Counts:       res.Plan.Counts,
		OutputSize:   res.Plan.OutputSize,
		Preprocessed: pre,
	}, nil
}

// MinBudgetForSizes runs the breach-minimizing solve for a ladder of
// target sizes over one corpus — the §7 frontier sweep. The input is
// preprocessed once and each step's LP warm-starts from the previous
// optimal basis, which is what makes dense ladders (bisection on the
// target, frontier tables) cheap. Results are positionally aligned with
// targets.
func MinBudgetForSizes(in *Log, targets []int) ([]*MinBudget, error) {
	pre, _ := Preprocess(in)
	warm := ump.NewWarmStarts(false)
	out := make([]*MinBudget, 0, len(targets))
	for _, target := range targets {
		res, err := ump.MinPrivacy(pre, target, ump.Options{Warm: warm})
		if err != nil {
			return nil, fmt.Errorf("dpslog: target %d: %w", target, err)
		}
		out = append(out, &MinBudget{
			Epsilon:      res.Epsilon,
			Counts:       res.Plan.Counts,
			OutputSize:   res.Plan.OutputSize,
			Preprocessed: pre,
		})
	}
	return out, nil
}

// VerifyCounts audits a plan of per-pair output counts against the
// Theorem-1 conditions for the given (preprocessed or raw) log: unique pairs
// must be zeroed and every user log's merged budget respected. counts is
// indexed by the log's pair order. A nil error certifies the plan.
func VerifyCounts(l *Log, epsilon, delta float64, counts []int) error {
	return dp.VerifyLog(l, dp.Params{Eps: epsilon, Delta: delta}, counts)
}

// BreachProbability returns the exact probability (Equation 2) that the
// user at index k of the log appears in an output sampled under the plan.
func BreachProbability(l *Log, k int, counts []int) float64 {
	return dp.BreachProbability(l, k, counts)
}
