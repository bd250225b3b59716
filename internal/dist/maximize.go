package dist

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tim"
)

// splitmix64 is the canonical splitmix64 step, duplicated here to build
// the (batch, RR id, node) randomness keys without exporting it from rng.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// combine hashes the parts into one 64-bit key. Randomness keyed on
// combine(batch, rr, node) is what makes runs shard-count invariant: the
// coins a node flips do not depend on which machine flips them.
func combine(parts ...uint64) uint64 {
	var x uint64 = 0x2545f4914f6cdd1d
	for _, p := range parts {
		x ^= p
		x = splitmix64(&x)
	}
	return x
}

// sampler generates RR sets with per-(batch, rr, node) keyed randomness
// and accounts the cross-shard traffic the reverse BFS would generate on
// a real cluster. One sampler per worker goroutine.
type sampler struct {
	g     *graph.Graph
	kind  diffusion.Kind
	part  partitioner
	r     rng.Rand // reseeded per decision point; no stream state carried
	mark  []uint32
	epoch uint32
	net   NetStats
}

func newSampler(g *graph.Graph, kind diffusion.Kind, part partitioner) *sampler {
	return &sampler{g: g, kind: kind, part: part, mark: make([]uint32, g.N())}
}

func (s *sampler) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
}

// sample generates RR set rrID of the batch keyed by batchSeed, appends
// its members to dst, and returns the extended slice.
func (s *sampler) sample(batchSeed, rrID uint64, dst []uint32) []uint32 {
	s.r.Seed(combine(batchSeed, rrID))
	root := uint32(s.r.Uint64n(uint64(s.g.N())))
	start := len(dst)
	if s.kind == diffusion.LT {
		dst = s.sampleLT(batchSeed, rrID, root, dst)
	} else {
		dst = s.sampleIC(batchSeed, rrID, root, dst)
	}
	// The completed set ships from the root's machine to the coordinator
	// (machine 0) for the cover phase.
	if s.part.shardOf(root) != 0 {
		s.net.Messages++
		s.net.Bytes += msgEnvelopeBytes + int64(len(dst)-start)*nodeIDBytes
	}
	return dst
}

// expand accounts one retained BFS edge v→u: if u lives on another
// machine, the frontier hops there as a request/reply round trip.
func (s *sampler) expand(v, u uint32) {
	if sv, su := s.part.shardOf(v), s.part.shardOf(u); sv != su {
		s.net.ExpandRequests++
		s.net.Messages += 2
		s.net.Bytes += 2*msgEnvelopeBytes + nodeIDBytes
	}
}

func (s *sampler) sampleIC(batchSeed, rrID uint64, root uint32, dst []uint32) []uint32 {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	start := len(dst)
	mark[root] = epoch
	dst = append(dst, root)
	for head := start; head < len(dst); head++ {
		v := dst[head]
		src, w := g.InNeighbors(v)
		s.r.Seed(combine(batchSeed, rrID, uint64(v)))
		for i := range src {
			u := src[i]
			if mark[u] == epoch {
				// The coin is still flipped (the key stream is per
				// node, positional), but a visited node is not re-added.
				s.r.Bernoulli32(w[i])
				continue
			}
			if s.r.Bernoulli32(w[i]) {
				mark[u] = epoch
				dst = append(dst, u)
				s.expand(v, u)
			}
		}
	}
	return dst
}

func (s *sampler) sampleLT(batchSeed, rrID uint64, root uint32, dst []uint32) []uint32 {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	mark[root] = epoch
	dst = append(dst, root)
	v := root
	for {
		src, w := g.InNeighbors(v)
		if len(src) == 0 {
			return dst
		}
		s.r.Seed(combine(batchSeed, rrID, uint64(v)))
		x := s.r.Float32()
		var acc float32
		next := uint32(0)
		found := false
		for i := range src {
			acc += w[i]
			if x < acc {
				next = src[i]
				found = true
				break
			}
		}
		if !found || mark[next] == epoch {
			return dst
		}
		mark[next] = epoch
		dst = append(dst, next)
		s.expand(v, next)
		v = next
	}
}

// sampleBatch generates count RR sets in parallel. The result and the
// traffic totals are deterministic for fixed (batchSeed, count) and
// independent of worker count and shard count (workers own contiguous
// rr-id ranges merged in order; traffic is a sum of per-set terms).
func sampleBatch(g *graph.Graph, kind diffusion.Kind, part partitioner, batchSeed uint64, count int64) (*diffusion.RRCollection, NetStats) {
	out := &diffusion.RRCollection{Off: []int64{0}}
	var net NetStats
	if count <= 0 || g.N() == 0 {
		return out, net
	}
	workers := runtime.GOMAXPROCS(0)
	if int64(workers) > count {
		workers = int(count)
	}
	parts := make([]*diffusion.RRCollection, workers)
	nets := make([]NetStats, workers)
	var wg sync.WaitGroup
	lo := int64(0)
	for w := 0; w < workers; w++ {
		quota := count / int64(workers)
		if int64(w) < count%int64(workers) {
			quota++
		}
		hi := lo + quota
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			s := newSampler(g, kind, part)
			col := &diffusion.RRCollection{Off: make([]int64, 1, hi-lo+1)}
			var buf []uint32
			for id := lo; id < hi; id++ {
				buf = s.sample(batchSeed, uint64(id), buf[:0])
				col.Append(buf)
			}
			parts[w] = col
			nets[w] = s.net
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	for w := range parts {
		out.Merge(parts[w])
		net.add(nets[w])
	}
	return out, net
}

// Maximize runs TIM or TIM+ (per opts.Variant) on a cluster of
// opts.Shards simulated machines. It computes the same two-phase pipeline
// as tim.Maximize — parameter estimation, optional refinement, node
// selection — with the distributed sampler and cover, so the guarantees
// of Theorems 1–3 carry over. The output for a fixed Seed is independent
// of the shard count and partitioning.
func Maximize(g *graph.Graph, model diffusion.Model, opts Options) (*Result, error) {
	if !modelSupported(model) {
		return nil, ErrTriggeringUnsupported
	}
	n := g.N()
	if err := opts.validate(n); err != nil {
		return nil, err
	}
	if opts.Variant != tim.TIM && opts.Variant != tim.TIMPlus {
		return nil, ErrBadOptions
	}
	part := newPartitioner(opts.Partition, n, opts.Shards)
	res := &Result{
		Shards:           opts.Shards,
		ShardMemoryBytes: shardMemory(g, part, opts.Shards),
	}
	kind := model.Kind()
	ell := tim.EffectiveEll(opts.Ell, opts.Variant, n)

	// Phase 1: parameter estimation (Algorithm 2) on the cluster. Batch b
	// is keyed by combine(Seed, b): machine-independent.
	batch := uint64(0)
	nextBatch := func() uint64 { batch++; return combine(opts.Seed, batch) }
	m := g.M()
	iterations := stats.KptIterations(n)
	kptStar := 1.0
	var lastBatch *diffusion.RRCollection
	for i := 1; i <= iterations; i++ {
		ci := stats.SampleScheduleCi(n, ell, i)
		col, net := sampleBatch(g, kind, part, nextBatch(), ci)
		res.Net.add(net)
		lastBatch = col
		sum, _ := tim.KappaSum(g, col, opts.K, m)
		if avg := sum / float64(ci); avg > math.Pow(2, -float64(i)) {
			kptStar = float64(n) * sum / (2 * float64(ci))
			break
		}
	}
	res.KptStar = kptStar
	res.KptPlus = kptStar

	// Intermediate step: refinement (Algorithm 3, TIM+ only). The greedy
	// cover over R′ runs as a distributed cover (accounted below with the
	// main selection); the fresh-batch estimate is distributed sampling.
	if opts.Variant == tim.TIMPlus && lastBatch != nil && kptStar > 0 {
		epsPrime := opts.EpsPrime
		if epsPrime == 0 {
			epsPrime = stats.EpsPrime(opts.K, opts.Epsilon, ell)
		}
		cover := maxcover.Greedy(n, lastBatch, opts.K)
		res.Net.add(coverTraffic(opts.K, opts.Shards))
		lambdaPrime := stats.LambdaPrime(n, ell, epsPrime)
		thetaPrime := int64(math.Ceil(lambdaPrime / kptStar))
		if thetaPrime < 1 {
			thetaPrime = 1
		}
		fresh, net := sampleBatch(g, kind, part, nextBatch(), thetaPrime)
		res.Net.add(net)
		covered := maxcover.CountCovered(n, fresh, cover.Seeds)
		f := float64(covered) / float64(thetaPrime)
		if kptPrime := f * float64(n) / (1 + epsPrime); kptPrime > kptStar {
			res.KptPlus = kptPrime
		}
	}

	// Phase 2: node selection (Algorithm 1) with θ = λ/KPT⁺.
	lambda := stats.Lambda(n, opts.K, opts.Epsilon, ell)
	kpt := res.KptPlus
	if kpt < 1 {
		kpt = 1
	}
	theta := int64(math.Ceil(lambda / kpt))
	if theta < 1 {
		theta = 1
	}
	col, net := sampleBatch(g, kind, part, nextBatch(), theta)
	res.Net.add(net)
	cover := maxcover.Greedy(n, col, opts.K)
	res.Net.add(coverTraffic(opts.K, opts.Shards))

	res.Seeds = cover.Seeds
	res.Theta = theta
	res.CoverageFraction = float64(cover.Covered) / float64(theta)
	res.SpreadEstimate = res.CoverageFraction * float64(n)
	return res, nil
}

// coverTraffic is the traffic of a k-round distributed greedy cover: each
// round every non-coordinator machine reports its local best candidate
// (node id + marginal count) and the coordinator broadcasts the pick.
func coverTraffic(k, shards int) NetStats {
	var net NetStats
	if shards <= 1 {
		return net
	}
	p := int64(shards - 1)
	for round := 0; round < k; round++ {
		net.CoverRounds++
		net.Messages += 2 * p
		net.Bytes += p*(nodeIDBytes+8) + p*nodeIDBytes
	}
	return net
}
