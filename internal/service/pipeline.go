package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Pair is one alias query of a batch: two value names within one function,
// the textual form of alias.Pair.
type Pair struct {
	Func string `json:"func"`
	A    string `json:"a"`
	B    string `json:"b"`
}

// Result is the service-side rendering of one alias.Verdict.
type Result struct {
	// Result is "no-alias" or "may-alias" (alias.Result.String()).
	Result string `json:"result"`
	// Resolved names the first chain member that proved no-alias — the
	// LLVM-AAResults attribution. Empty for may-alias.
	Resolved string `json:"resolved,omitempty"`
	// Provers names every member that independently proved no-alias.
	Provers []string `json:"provers,omitempty"`
	// Detail carries rbaa's Fig. 14 attribution ("global-range", …) when
	// an Explainer member produced one.
	Detail string `json:"detail,omitempty"`
}

// resolvedPair is a validated pair, pinned to its request index so the
// aggregate stage can reassemble results in request order. sh is the shard
// the shard stage assigned it. Both fit an int32: a batch is at most
// Config.MaxBatch pairs.
type resolvedPair struct {
	idx, sh int32
	p, q    *ir.Value
}

// shard groups the resolved pairs of one function. Shards are the pipeline's
// locality unit: a function's queries hit the same analysis rows, so one
// worker streams through them with a warm cache.
type shard struct {
	fn    *ir.Func
	n     int
	pairs []resolvedPair
}

// name is the type of the names resolveNames looks up: the fast path's
// sub-slices of the request body, or the strings of decoded Pairs.
type name interface{ ~string | ~[]byte }

// resolveNames is the validate stage: every name must resolve against the
// handle's value index and both values must be pointer-typed. names(i)
// yields pair i's function and value names; out has one slot per pair. The
// first offending pair aborts the batch (the client sent a malformed
// request; partial evaluation would make responses order-dependent). The
// map lookups convert names with string(…), which does not allocate.
func resolveNames[S name](h *Handle, out []resolvedPair, names func(i int) (fn, a, b S)) error {
	// Batches overwhelmingly query one function repeatedly (the shard stage
	// depends on it), so the per-function value map is looked up once per
	// run of equal names, not twice per pair.
	var curFn S
	var vals map[string]*ir.Value
	for i := range out {
		fn, a, b := names(i)
		if vals == nil || string(fn) != string(curFn) {
			vals = h.values[string(fn)]
			if vals == nil {
				return fmt.Errorf("pair %d: unknown function %q", i, fn)
			}
			curFn = fn
		}
		p, ok := vals[string(a)]
		if !ok {
			return fmt.Errorf("pair %d: no value %q in function %q", i, a, fn)
		}
		q, ok := vals[string(b)]
		if !ok {
			return fmt.Errorf("pair %d: no value %q in function %q", i, b, fn)
		}
		if p.Typ != ir.TPtr {
			return fmt.Errorf("pair %d: value %q is not pointer-typed", i, a)
		}
		if q.Typ != ir.TPtr {
			return fmt.Errorf("pair %d: value %q is not pointer-typed", i, b)
		}
		out[i] = resolvedPair{idx: int32(i), p: p, q: q}
	}
	return nil
}

// resolveBatch is resolveNames over decoded Pairs.
func resolveBatch(h *Handle, pairs []Pair, out []resolvedPair) error {
	return resolveNames(h, out, func(i int) (string, string, string) {
		return pairs[i].Func, pairs[i].A, pairs[i].B
	})
}

// shardByFunc is the shard stage: pairs grouped by function, shards ordered
// by first appearance, request order preserved within each shard. Grouping
// is a stable counting sort into b's scratch; a batch over one function,
// the common case, is its own single shard and is not copied.
func (b *queryBuf) shardByFunc(rs []resolvedPair) []shard {
	shards := b.shards[:0]
	index := map[*ir.Func]int32{}
	cur := int32(-1)
	for i := range rs {
		f := rs[i].p.Func
		if cur < 0 || shards[cur].fn != f {
			si, ok := index[f]
			if !ok {
				si = int32(len(shards))
				index[f] = si
				shards = append(shards, shard{fn: f})
			}
			cur = si
		}
		shards[cur].n++
		rs[i].sh = cur
	}
	b.shards = shards
	if len(shards) == 1 {
		shards[0].pairs = rs
		return shards
	}
	b.sorted = grow(b.sorted, len(rs))
	off := 0
	for si := range shards {
		n := shards[si].n
		shards[si].pairs = b.sorted[off : off : off+n]
		off += n
	}
	for _, rp := range rs {
		sh := &shards[rp.sh]
		sh.pairs = append(sh.pairs, rp)
	}
	return shards
}

// batchChunk caps the pairs one worker takes at a time. Batches are at most
// Config.MaxBatch pairs, far below the experiment sweeps that pool.ChunkSize
// is tuned for, so the pipeline cuts finer to keep all workers busy.
const batchChunk = 256

// evaluate is the query-worker stage plus the order-restoring half of the
// aggregate stage: each shard is first swept into a plan (the O(N log N)
// partition over the shard's distinct values — a shard is one function,
// the planner's unit), shards are cut into chunks, chunks fan out across
// the service pool, and each worker answers its pairs through the plan
// into the request-indexed slots of b's verdict buffer: cross-group pairs
// short-circuit, the rest hit the compiled index. The result is identical
// to a sequential evaluation because slot i depends only on pair i.
// Tallies are kept per chunk and folded once, so workers never contend on
// the counters.
//
// Cancellation is cooperative at chunk granularity: a shed or timed-out
// request stops dispatching chunks (ForEachCtx) and returns the context's
// error; chunks already running finish before ForEachCtx returns, and their
// slot writes are discarded with the pooled buffer.
func (s *Service) evaluate(ctx context.Context, tr *telemetry.Trace, h *Handle, b *queryBuf, shards []shard, n int) ([]alias.Verdict, error) {
	out := grow(b.verdicts, n)
	b.verdicts = out
	type task struct {
		sh     int
		lo, hi int
	}
	ntasks := 0
	for si := range shards {
		ntasks += (len(shards[si].pairs) + batchChunk - 1) / batchChunk
	}
	tasks := make([]task, 0, ntasks)
	for si := range shards {
		for lo := 0; lo < len(shards[si].pairs); lo += batchChunk {
			tasks = append(tasks, task{sh: si, lo: lo, hi: min(lo+batchChunk, len(shards[si].pairs))})
		}
	}
	planStart := time.Now()
	plans := make([]*alias.Plan, len(shards))
	for si := range shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals := b.vals[:0]
		for _, rp := range shards[si].pairs {
			vals = append(vals, rp.p, rp.q)
		}
		b.vals = vals
		plans[si] = h.Planner.Plan(vals)
	}
	evalStart := observeStage(s.metrics.stagePlan, stgPlan, tr, planStart)
	err := s.pool.ForEachCtx(ctx, len(tasks), func(ti int) {
		t := tasks[ti]
		var tally alias.PlanTally
		plan := plans[t.sh]
		for _, rp := range shards[t.sh].pairs[t.lo:t.hi] {
			out[rp.idx] = plan.Evaluate(rp.p, rp.q, &tally)
		}
		h.Planner.Fold(tally)
	})
	observeStage(s.metrics.stageEvaluate, stgEvaluate, tr, evalStart)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeVerdict renders one verdict with member names resolved against the
// index's chain: the Result form RunBatch returns. appendVerdict writes
// the same rendering straight to the wire. The prover list is sized exactly
// from the verdict's mask, so encoding never grows a slice.
func encodeVerdict(ix *alias.Index, v alias.Verdict) Result {
	r := Result{Result: v.Result.String()}
	if v.Result == alias.NoAlias && v.Resolved >= 0 {
		r.Resolved = ix.MemberName(v.Resolved)
	}
	if n := v.NumProvers(); n > 0 {
		r.Provers = make([]string, 0, n)
	}
	for i := 0; i < ix.NumMembers(); i++ {
		if v.MemberNoAlias(i) {
			r.Provers = append(r.Provers, ix.MemberName(i))
		}
		if d := v.Detail(i); d != "" && r.Detail == "" {
			r.Detail = d
		}
	}
	return r
}

// runPipeline pushes one decoded batch of n pairs through validate → shard
// → plan → query workers and returns the request-ordered verdicts, which
// live in b's verdict buffer. resolve is the validate stage: it fills one
// resolvedPair per pair from h or reports the first offending one. The checks run
// in the order clients see them: module state, empty batch, the MaxBatch
// bound, the deadline, then name resolution, so an oversized batch gets
// the size error whatever names it carries. Stage latencies land in the
// service's /metrics histograms, and when ctx carries a telemetry.Trace
// (the HTTP envelope installs one) each stage also records a span on it.
//
// aliaslint:hotpath — scrape callbacks must not take locks this path holds
// (enforced by the metricreg analyzer through the lock summaries).
func (s *Service) runPipeline(ctx context.Context, h *Handle, b *queryBuf, n int, resolve func(h *Handle, out []resolvedPair) error) ([]alias.Verdict, error) {
	if h.State() != StateReady {
		return nil, fmt.Errorf("module %q is %s", h.Name, h.State())
	}
	if n == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	if n > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch has %d pairs, exceeding the %d-pair limit", n, s.cfg.MaxBatch)
	}
	// The deadline/cancellation check runs before every stage (and per
	// chunk inside evaluate, via ForEachCtx) so a shed or timed-out batch
	// stops mid-flight instead of evaluating to completion.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := telemetry.FromContext(ctx)
	start := time.Now()
	b.resolved = grow(b.resolved, n)
	if err := resolve(h, b.resolved); err != nil {
		return nil, err
	}
	now := observeStage(s.metrics.stageValidate, stgValidate, tr, start)
	shards := b.shardByFunc(b.resolved)
	observeStage(s.metrics.stageShard, stgShard, tr, now)
	return s.evaluate(ctx, tr, h, b, shards, n)
}

// RunBatch pushes one decoded batch through validate → shard → plan → query
// workers and returns the request-ordered results. It is the programmatic
// core of POST /v1/query, exported for golden tests and embedders: the
// handler writes the same verdicts straight to the wire, in bytes equal to
// json.Marshal of a QueryResponse holding these results. Stages are
// recorded as runPipeline describes. The returned slice is the caller's.
//
// aliaslint:hotpath — scrape callbacks must not take locks this path holds
// (enforced by the metricreg analyzer through the lock summaries).
func (s *Service) RunBatch(ctx context.Context, h *Handle, pairs []Pair) ([]Result, error) {
	b := getQueryBuf()
	defer putQueryBuf(b)
	verdicts, err := s.runPipeline(ctx, h, b, len(pairs), func(h *Handle, out []resolvedPair) error {
		return resolveBatch(h, pairs, out)
	})
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(verdicts))
	ix := h.Planner.Index()
	for i, v := range verdicts {
		results[i] = encodeVerdict(ix, v)
	}
	return results, nil
}
