package alias

import (
	"slices"
	"sync/atomic"

	"repro/internal/ir"
)

// Batch planner. A batch of same-function alias queries has structure the
// per-pair chain walk cannot see: most pointers sit in provably-disjoint
// ranges, so most pairs are no-alias for the *same* range-structural reason.
// The planner exploits it the way the paper's evaluation exploits range
// disjointness: for one function's slice of a batch it sorts the distinct
// values by (site, bound shape, range lower bound) and runs a sweep line
// that clusters overlapping ranges — O(N log N) in the number of distinct
// values. Two values separated by the partition (different sites, or
// same-site same-shape ranges in different clusters) are provably disjoint
// and answered no-alias with no per-pair work at all; only unseparated
// (and residue) pairs fall through to the compiled index check. A pair
// outside every index universe gets the sound conservative verdict
// (may-alias, no provers) and is tallied as a fallback; the service's
// validate stage admits only universe values, so it never sends one.
//
// Answer contract: the planner's Result (no-alias / may-alias) is always
// identical to Manager.Evaluate's — sweep separations are justified by the
// rbaa member's own range digests, and index verdicts replicate the chain
// member for member. Attribution differs only on sweep-answered pairs: they
// are credited to the range member alone (Resolved/Provers = rbaa, Detail =
// the Fig. 14 reason the partition proves), because no other member was
// consulted. Clients that need full per-member attribution should evaluate
// through Index.Evaluate.

// PlanTally accumulates planner outcomes without touching shared counters;
// workers keep one per chunk and fold it into the Planner once.
type PlanTally struct {
	Pairs         int64
	SweepNoAlias  int64 // pairs answered by group separation alone
	IndexPairs    int64 // pairs answered by the compiled index
	IndexNoAlias  int64
	FallbackPairs int64 // pairs outside the index, answered may-alias
}

// PlannerStats is a point-in-time snapshot of a planner's counters.
type PlannerStats struct {
	// Batches counts Plan calls; PlannedValues the distinct values swept;
	// Groups the disjoint groups those sweeps formed.
	Batches       int64
	PlannedValues int64
	Groups        int64
	PlanTally
}

// FallbackRate returns the fraction of pairs the index could not answer.
func (s PlannerStats) FallbackRate() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.FallbackPairs) / float64(s.Pairs)
}

// Planner answers batches over a compiled Index. Safe for concurrent use.
type Planner struct {
	ix *Index

	batches       atomic.Int64
	plannedValues atomic.Int64
	groups        atomic.Int64
	pairs         atomic.Int64
	sweepNoAlias  atomic.Int64
	indexPairs    atomic.Int64
	indexNoAlias  atomic.Int64
	fbPairs       atomic.Int64
}

// NewPlanner builds a planner over a compiled index.
func NewPlanner(ix *Index) *Planner {
	return &Planner{ix: ix}
}

// Index returns the compiled index.
func (pl *Planner) Index() *Index { return pl.ix }

// Fold adds a worker's local tally into the shared counters.
func (pl *Planner) Fold(t PlanTally) {
	if t.Pairs != 0 {
		pl.pairs.Add(t.Pairs)
	}
	if t.SweepNoAlias != 0 {
		pl.sweepNoAlias.Add(t.SweepNoAlias)
	}
	if t.IndexPairs != 0 {
		pl.indexPairs.Add(t.IndexPairs)
	}
	if t.IndexNoAlias != 0 {
		pl.indexNoAlias.Add(t.IndexNoAlias)
	}
	if t.FallbackPairs != 0 {
		pl.fbPairs.Add(t.FallbackPairs)
	}
}

// Stats snapshots the counters.
func (pl *Planner) Stats() PlannerStats {
	return PlannerStats{
		Batches:       pl.batches.Load(),
		PlannedValues: pl.plannedValues.Load(),
		Groups:        pl.groups.Load(),
		PlanTally: PlanTally{
			Pairs:         pl.pairs.Load(),
			SweepNoAlias:  pl.sweepNoAlias.Load(),
			IndexPairs:    pl.indexPairs.Load(),
			IndexNoAlias:  pl.indexNoAlias.Load(),
			FallbackPairs: pl.fbPairs.Load(),
		},
	}
}

// sweepKind classifies a value for the sweep line.
const (
	sweepUnplanned int8 = iota // not in this plan's batch slice
	sweepTop                   // GR = ⊤: rbaa proves nothing about it
	sweepResidue               // non-⊤ but multi-site or undecomposable bounds
	sweepBottom                // ⊥: disjoint from every non-⊤ value
	sweepSingle                // one site, shape-decomposable bounds: sweepable
)

// sweepPos is a planned value's position in the partition. The partition is
// hierarchical, mirroring what rbaa's range digests actually prove: two
// singles on different sites have disjoint supports; two singles on one
// site with the same bound shape and different clusters have provably
// disjoint ranges; everything else proves nothing and goes to the index.
type sweepPos struct {
	kind    int8
	site    int32
	shape   int32 // shape id of both bounds (sweepSingle only)
	cluster int32 // sweep-line cluster within (site, shape)
}

// planned is one distinct value of a plan during construction.
type planned struct {
	vn     int32
	pos    sweepPos
	lo, hi int64
}

// Plan is the sweep partition of one function's batch slice. Building it is
// O(N log N) in the distinct values; Evaluate answers each requested pair in
// O(1) position compares plus (for intra-cluster and residue pairs) the
// index check. A Plan is immutable after Plan() returns and safe for
// concurrent Evaluate calls.
//
// aliaslint:frozen
type Plan struct {
	fi *FuncIndex
	// pos is indexed by universe number; kind sweepUnplanned marks values
	// outside this batch slice. A flat array (no pointers) keeps plan
	// construction a single clear and Evaluate's lookups two array reads.
	pos []sweepPos
}

// Plan partitions the distinct values of one function's batch slice by
// sweep position. All values must belong to one function; duplicates are
// fine. An unindexed function or a chain with no range member yields a
// plan whose pairs all fall back (still counted).
//
// aliaslint:mutator — the Plan's builder: it fills pos/fi before the Plan
// is returned (and frozen).
func (pl *Planner) Plan(vals []*ir.Value) *Plan {
	pl.batches.Add(1)
	p := &Plan{}
	if len(vals) == 0 {
		return p
	}
	fi := pl.ix.Func(vals[0].Func)
	if fi == nil || fi.rangeMember < 0 {
		return p
	}
	p.fi = fi
	rng := fi.cols[fi.rangeMember].rng

	p.pos = make([]sweepPos, len(fi.universe))
	// At most the universe's distinct values land in singles, however many
	// pairs the shard repeats them in.
	singles := make([]planned, 0, min(len(vals), len(fi.universe)))

	seen := 0
	for _, v := range vals {
		vn := fi.num(v)
		if vn < 0 {
			continue // unindexed value: Evaluate falls back
		}
		if p.pos[vn].kind != sweepUnplanned {
			continue // duplicate
		}
		seen++
		e := planned{vn: vn, pos: sweepPos{kind: sweepTop}}
		if !rng.Top[vn] {
			rs := rng.rangesOf(vn)
			e.pos.kind = sweepResidue
			switch {
			case len(rs) == 0:
				e.pos.kind = sweepBottom
			case len(rs) == 1 && rs[0].Sweepable():
				e.pos.kind = sweepSingle
				e.pos.site = rs[0].Site
				e.pos.shape = rs[0].LoShape
				e.lo, e.hi = rs[0].Lo, rs[0].Hi
			}
		}
		if e.pos.kind == sweepSingle {
			singles = append(singles, e)
		}
		p.pos[vn] = e.pos // singles get their cluster below
	}

	// Sweep line per (site, shape): sort by (site, shape, lo); a value
	// whose lower bound lies past the running maximum upper bound of the
	// current cluster — or that opens a new site/shape segment — starts a
	// new cluster. Within one segment the shape cancels under subtraction,
	// so two values in different clusters have hi < lo: provably disjoint
	// ranges, precisely rbaa's global test.
	slices.SortFunc(singles, func(a, b planned) int {
		if a.pos.site != b.pos.site {
			return int(a.pos.site - b.pos.site)
		}
		if a.pos.shape != b.pos.shape {
			return int(a.pos.shape - b.pos.shape)
		}
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var clusters int32
	var curMaxHi int64
	for i := range singles {
		e := &singles[i]
		if i == 0 || e.pos.site != singles[i-1].pos.site ||
			e.pos.shape != singles[i-1].pos.shape || e.lo > curMaxHi {
			clusters++
			curMaxHi = e.hi
		} else if e.hi > curMaxHi {
			curMaxHi = e.hi
		}
		e.pos.cluster = clusters - 1
		p.pos[e.vn] = e.pos
	}
	pl.plannedValues.Add(int64(seen))
	pl.groups.Add(int64(clusters))
	return p
}

// Evaluate answers one planned pair, tallying into t. Partition-separated
// pairs are answered by the sweep; same-cluster, cross-shape and residue
// pairs go to the index; a pair outside the plan falls back to the
// conservative may-alias verdict with no provers.
func (p *Plan) Evaluate(a, b *ir.Value, t *PlanTally) Verdict {
	t.Pairs++
	if p.fi != nil {
		i, j := p.fi.num(a), p.fi.num(b)
		if i >= 0 && j >= 0 {
			pa, pb := p.pos[i], p.pos[j]
			if pa.kind != sweepUnplanned && pb.kind != sweepUnplanned {
				// The partition proves exactly what rbaa's digests prove:
				//   ⊥ vs non-⊤            → empty common support
				//   singles, site differs  → disjoint supports
				//   singles, same site+shape, different clusters → disjoint ranges
				// A ⊥-vs-⊤ pair is excluded: rbaa's QueryGR bails on ⊤ before
				// looking at supports, so the chain answers may-alias there.
				if (pa.kind == sweepBottom && pb.kind != sweepTop) ||
					(pb.kind == sweepBottom && pa.kind != sweepTop) {
					t.SweepNoAlias++
					return p.fi.sweepDisjoint
				}
				if pa.kind == sweepSingle && pb.kind == sweepSingle {
					if pa.site != pb.site {
						t.SweepNoAlias++
						return p.fi.sweepDisjoint
					}
					if pa.shape == pb.shape && pa.cluster != pb.cluster {
						t.SweepNoAlias++
						return p.fi.sweepGlobal
					}
				}
				t.IndexPairs++
				v := p.fi.evaluate(i, j)
				if v.Result == NoAlias {
					t.IndexNoAlias++
				}
				return v
			}
		}
	}
	t.FallbackPairs++
	return Verdict{Resolved: -1}
}
