package tim

import "time"

// Timings is the per-phase wall-clock breakdown reported in Figure 4 of
// the paper.
type Timings struct {
	// KptEstimation is Algorithm 2 (parameter estimation).
	KptEstimation time.Duration
	// Refinement is Algorithm 3 (the TIM+ intermediate step; zero for
	// plain TIM).
	Refinement time.Duration
	// NodeSelection is Algorithm 1 (θ-set sampling + greedy coverage).
	NodeSelection time.Duration
	// Total is the full Maximize call.
	Total time.Duration
}

// Result is the output of a Maximize run, with the diagnostics the
// paper's experiments chart: the KPT bounds (Figure 5), θ, per-phase
// timings (Figure 4), and memory held by the RR-set collection
// (Figure 12).
type Result struct {
	// Seeds is the selected seed set, in greedy pick order (|Seeds| = K
	// for unconstrained runs; constrained runs prepend Query.Force and
	// may return fewer picks when a budget or exclusions bind).
	Seeds []uint32

	// KptStar is Algorithm 2's lower bound KPT* of OPT.
	KptStar float64
	// KptPlus is Algorithm 3's refined bound KPT+ (equals KptStar for
	// plain TIM).
	KptPlus float64
	// EptEstimate is the mean RR-set width w(R) (Equation 1) over the
	// final Algorithm 2 batch — an estimate of EPT (§3.2).
	EptEstimate float64

	// Epsilon is the approximation slack ε the run used (after option
	// defaulting) — the "achieved ε" a latency-tiered server reports
	// when a budget coarsened the request along its ε ladder.
	Epsilon float64
	// Confidence is ApproxFactor(Epsilon): the guaranteed approximation
	// factor, holding with probability 1 − n^−ℓ. Zero when ThetaCapped
	// voided the guarantee.
	Confidence float64

	// Theta is the number of RR sets sampled by node selection.
	Theta int64
	// ThetaCapped reports whether Options.ThetaCap truncated Theta
	// (in which case the approximation guarantee is void).
	ThetaCapped bool

	// CoverageFraction is F_R(Seeds): the fraction of the θ RR sets
	// covered by the selected seeds.
	CoverageFraction float64
	// SpreadEstimate is Mass·F_R(Seeds), the unbiased estimate of
	// E[I(Seeds)] (Corollary 1) — for constrained queries, of the
	// weighted, deadline-bounded audience mass the seeds activate.
	SpreadEstimate float64
	// Mass is the audience scale of SpreadEstimate: the total audience
	// weight W for targeted queries, float64(n) otherwise.
	Mass float64
	// ForcedSeeds counts the Query.Force warm-start seeds at the front of
	// Seeds (zero without a constrained query).
	ForcedSeeds int
	// SeedCost is the budget consumed by the non-forced picks under
	// Query.Costs (budgeted queries only; zero otherwise).
	SeedCost float64

	// RRTotalNodes is Σ|R| over the node selection collection.
	RRTotalNodes int64
	// MemoryBytes approximates the heap held by the RR collection at
	// selection time (the dominant memory cost per §7.4). For spilled
	// runs it is the on-disk footprint instead; see Spilled.
	MemoryBytes int64
	// Spilled reports that Options.SpillDir diverted the RR collection
	// to disk; MemoryBytes then measures the spill file.
	Spilled bool

	// KptIterations is how many Algorithm 2 iterations ran.
	KptIterations int

	Timings Timings
}
