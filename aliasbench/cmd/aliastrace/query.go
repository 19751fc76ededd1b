package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"time"

	"repro/aliasbench/internal/bench"
	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/service"
)

// Query-path layer names.
const (
	layerHTTP      = "service.http"
	layerPipeline  = "service.pipeline"
	layerPlan      = "alias.plan"
	layerPlanEval  = "alias.plan_eval"
	layerIndexEval = "alias.index_eval"
)

// batchChunk mirrors the pipeline's chunk size: a shard's pairs fan out to
// the pool in chunks of this many, so a batch keeps min(GOMAXPROCS, chunks)
// workers busy. If the pipeline's constant changes, pipeline self time is
// misattributed until this one follows.
const batchChunk = 256

// queryStats accumulates the replay's counts.
type queryStats struct {
	pairs         int
	respBytes     int64
	tally         alias.PlanTally
	indexNoAlias  int // keeps Index.Evaluate's answers in use
	pipelineSelf  time.Duration
	untracedPairs int
	untracedTime  time.Duration
	tracedTime    time.Duration
	gcShare       float64
}

// replayUntraced sends the sample with no spans, timing each request as the
// timed command does, and returns the answers' hashes for the traced pass
// and the checks to compare with.
func replayUntraced(c *bench.Client, w *bench.Workload, sample []int, qs *queryStats, seed maphash.Seed) ([]uint64, int) {
	var body []byte
	hashes := make([]uint64, len(sample))
	failed := 0
	g0 := readGCCPU()
	for i, bi := range sample {
		b := w.Batches[bi]
		body = w.AppendBody(body[:0], b, false)
		t := time.Now()
		code, resp, err := c.Query(body)
		qs.untracedTime += time.Since(t)
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		qs.untracedPairs += b.Size
		hashes[i] = maphash.Bytes(seed, resp)
	}
	qs.gcShare = readGCCPU().share(g0)
	return hashes, failed
}

// check sends every distinct batch once more, after the replays, and feeds
// the answers to the verifier; on corpus each batch is also sent reversed.
// Each answer must hash like the untraced one to the same batch.
func check(c *bench.Client, w *bench.Workload, sample []int, want []uint64, v *bench.Verifier, seed maphash.Seed) error {
	var body []byte
	done := make([]bool, len(w.Batches))
	for i, bi := range sample {
		if done[bi] {
			continue
		}
		done[bi] = true
		b := w.Batches[bi]
		for _, reversed := range []bool{false, true} {
			if reversed && w.Name != bench.Corpus {
				break
			}
			body = w.AppendBody(body[:0], b, reversed)
			code, resp, err := c.Query(body)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("check batch %d: status %d, %v", bi, code, err)
			}
			if reversed {
				v.Reversed(b, resp)
				continue
			}
			if maphash.Bytes(seed, resp) != want[i] {
				return fmt.Errorf("%s batch at %d: checked answer differs from the untraced one", w.Modules[b.Mod].Name, b.Start)
			}
			v.Batch(b, resp)
		}
	}
	return nil
}

// replayTraced sends the sample again with spans: the handler call, then
// Service.RunBatch on the same pairs, then per shard the planner's Plan,
// Plan.Evaluate and Index.Evaluate on the same values. Each traced answer
// must hash like its untraced one.
func replayTraced(tr *Tracer, svc *service.Service, c *bench.Client, w *bench.Workload, sample []int, want []uint64, qs *queryStats, seed maphash.Seed) (int, error) {
	handles := map[int]*service.Handle{}
	defer func() {
		for _, h := range handles {
			h.Release()
		}
	}()
	var body []byte
	failed := 0
	workers := runtime.GOMAXPROCS(0)
	for i, bi := range sample {
		b := w.Batches[bi]
		mod := w.Modules[b.Mod]
		h := handles[b.Mod]
		if h == nil {
			var ok bool
			if h, ok = svc.Registry().Get(mod.Name); !ok {
				return failed, fmt.Errorf("module %s not registered", mod.Name)
			}
			handles[b.Mod] = h
			if h.Planner == nil || h.Planner.Index() == nil {
				return failed, fmt.Errorf("module %s has no planner", mod.Name)
			}
		}
		req := fmt.Sprintf("query:%d", i)
		refs := w.Refs(b)
		pairs := make([]service.Pair, len(refs))
		for k, r := range refs {
			f := mod.Funcs[r.Func]
			pairs[k] = service.Pair{Func: f.Name, A: f.Ptrs[r.A], B: f.Ptrs[r.B]}
		}
		body = w.AppendBody(body[:0], b, false)

		t0 := time.Now()
		var code int
		var resp []byte
		var err error
		hsp := tr.CallCounted(req, layerHTTP, 0, func() { code, resp, err = c.Query(body) })
		hsp.Pairs, hsp.Bytes = b.Size, int64(len(resp))
		httpID := hsp.ID
		qs.tracedTime += time.Since(t0)
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		if maphash.Bytes(seed, resp) != want[i] {
			return failed, fmt.Errorf("%s batch at %d: traced answer differs from the untraced one", mod.Name, b.Start)
		}
		qs.pairs += b.Size
		qs.respBytes += int64(len(resp))

		var results []service.Result
		psp := tr.Call(req, layerPipeline, httpID, func() {
			results, err = svc.RunBatch(context.Background(), h, pairs)
		})
		psp.Pairs = b.Size
		pipeline := psp.Dur()
		if err != nil || len(results) != b.Size {
			return failed, fmt.Errorf("%s batch at %d: RunBatch: %d results, %v", mod.Name, b.Start, len(results), err)
		}

		var plan, eval time.Duration
		chunks := 0
		for _, sh := range shards(refs) {
			vals := make([]*ir.Value, 0, 2*len(sh))
			for _, r := range sh {
				f := mod.Funcs[r.Func]
				p, err1 := h.Lookup(f.Name, f.Ptrs[r.A])
				q, err2 := h.Lookup(f.Name, f.Ptrs[r.B])
				if err1 != nil || err2 != nil {
					return failed, fmt.Errorf("lookup: %v %v", err1, err2)
				}
				vals = append(vals, p, q)
			}
			chunks += (len(sh) + batchChunk - 1) / batchChunk
			var p *alias.Plan
			sp := tr.Call(req, layerPlan, psp.ID, func() { p = h.Planner.Plan(vals) })
			sp.Pairs = len(sh)
			plan += sp.Dur()
			sp = tr.Call(req, layerPlanEval, psp.ID, func() {
				for k := 0; k < len(vals); k += 2 {
					p.Evaluate(vals[k], vals[k+1], &qs.tally)
				}
			})
			sp.Pairs = len(sh)
			eval += sp.Dur()
			ix := h.Planner.Index()
			sp = tr.CallCounted(req, layerIndexEval, psp.ID, func() {
				for k := 0; k < len(vals); k += 2 {
					if v, ok := ix.Evaluate(vals[k], vals[k+1]); ok && v.Result == alias.NoAlias {
						qs.indexNoAlias++
					}
				}
			})
			sp.Pairs = len(sh)
		}
		// Plans are built one after another on the request goroutine; the
		// evaluation fans out, so its wall time is the sequential time over
		// the workers the batch keeps busy.
		qs.pipelineSelf += pipeline - plan - eval/time.Duration(min(workers, chunks))
	}
	return failed, nil
}

// shards groups a batch's pairs by function, in order of first appearance,
// as the service's shard stage does.
func shards(refs []bench.PairRef) [][]bench.PairRef {
	index := map[int]int{}
	var out [][]bench.PairRef
	for _, r := range refs {
		si, ok := index[r.Func]
		if !ok {
			si = len(out)
			index[r.Func] = si
			out = append(out, nil)
		}
		out[si] = append(out[si], r)
	}
	return out
}
