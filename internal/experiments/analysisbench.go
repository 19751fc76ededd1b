package experiments

import (
	_ "embed"
	"encoding/json"
	"io"
	"testing"
	"time"

	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/symbolic"
)

// Analysis-core benchmark mode: where BENCH_service.json tracks the HTTP
// layer, BENCH_analysis.json tracks the representations underneath it — the
// module-build cost (symbolic expressions, MemLoc lattice, Andersen solve)
// that bounds async-build throughput and eviction-rebuild latency, and the
// allocation profile of the Manager query path. cmd/benchtables
// -analysis-bench emits the report; the numbers recorded at the
// representation-change PR live in analysis_baseline.json so every later run
// reports its delta against them.

//go:embed analysis_baseline.json
var analysisBaselineJSON []byte

// AnalysisBuildRow is one module's build cost: the full service chain
// (scev → basic → rbaa → andersen) built from an already-generated module.
type AnalysisBuildRow struct {
	Name     string  `json:"name"`
	Instrs   int     `json:"instrs"`
	Pointers int     `json:"pointers"`
	BuildMS  float64 `json:"build_ms"`
}

// AnalysisQueryBench is the uncached Manager query benchmark (allocation
// accounting via testing.Benchmark, so allocs/op matches `go test -benchmem`).
type AnalysisQueryBench struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// PlannerBench is the batch-planner section of the analysis report: one
// full pair sweep of a wide function answered by the sweep-line planner
// versus the Manager chain, with the partition counters of a single sweep
// (groups formed, pairs short-circuited, fallback rate).
type PlannerBench struct {
	Module        string  `json:"module"`
	PairsPerSweep int     `json:"pairs_per_sweep"`
	Groups        int64   `json:"groups"`
	SweepNoAlias  int64   `json:"sweep_noalias"`
	IndexPairs    int64   `json:"index_pairs"`
	FallbackPairs int64   `json:"fallback_pairs"`
	FallbackRate  float64 `json:"fallback_rate"`
	// Per-pair costs of a whole-module sweep: the Manager chain walking
	// every member per pair versus plan + evaluate.
	ManagerNsPerPair float64 `json:"manager_ns_per_pair"`
	PlannerNsPerPair float64 `json:"planner_ns_per_pair"`
	SpeedupX         float64 `json:"speedup_x"`
}

// AnalysisReport is the BENCH_analysis.json schema.
type AnalysisReport struct {
	Schema       string             `json:"schema"`
	Corpus       string             `json:"corpus"`
	Builds       []AnalysisBuildRow `json:"builds"`
	BuildTotalMS float64            `json:"build_total_ms"`
	// ExprsInterned / InternHits are the symbolic interner's counter *deltas
	// over this bench run* (snapshot before minus snapshot after), so the
	// small-constant table pre-interned at process init does not count.
	// Zero ExprsInterned therefore really means the interner fell out of
	// the build path — the CI smoke step fails on it.
	ExprsInterned int64              `json:"exprs_interned"`
	InternHits    int64              `json:"intern_hits"`
	Query         AnalysisQueryBench `json:"manager_query"`
	// Planner benchmarks the compiled-index batch path (absent in reports
	// from before the sweep-line planner existed, including the baseline).
	Planner *PlannerBench `json:"batch_planner,omitempty"`
	// Baseline is the report recorded before the representation change
	// (hash-consing + flat MemLocs + bitset Andersen), embedded at build
	// time; the *X fields are current-vs-baseline ratios (>1 is better).
	Baseline        *AnalysisReport `json:"baseline,omitempty"`
	AllocReductionX float64         `json:"alloc_reduction_x,omitempty"`
	BuildSpeedupX   float64         `json:"build_speedup_x,omitempty"`
	QuerySpeedupX   float64         `json:"query_speedup_x,omitempty"`
}

// internerCounters snapshots the symbolic interner: distinct hash-consed
// nodes and constructor calls served by an existing node.
func internerCounters() (interned, hits int64) {
	st := symbolic.Default().Stats()
	return st.Interned, st.Hits
}

// RunAnalysisBench measures the analysis core on the Fig. 13 corpus:
// per-module full-chain build time, interner counters, and the uncached
// Manager query benchmark on the largest module (espresso).
func (d *Driver) RunAnalysisBench() AnalysisReport {
	rep := AnalysisReport{Schema: "bench_analysis/v1", Corpus: "fig13"}
	internedBefore, hitsBefore := internerCounters()

	for _, c := range benchgen.Fig13Configs() {
		m := benchgen.Generate(c)
		st := m.Stats()
		start := time.Now()
		mgr := alias.NewManager(
			alias.ManagerOptions{Label: "scev+basic+rbaa+andersen"},
			scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}), andersen.Analyze(m))
		elapsed := time.Since(start)
		_ = mgr
		rep.Builds = append(rep.Builds, AnalysisBuildRow{
			Name:     c.Name,
			Instrs:   st.Instrs,
			Pointers: st.Pointers,
			BuildMS:  float64(elapsed.Microseconds()) / 1000.0,
		})
		rep.BuildTotalMS += float64(elapsed.Microseconds()) / 1000.0
	}

	// Uncached Manager query benchmark on espresso: every Evaluate runs all
	// members, so allocs/op is the member-evaluation allocation budget.
	m := benchgen.Generate(benchgen.Fig13Configs()[1])
	mgr := alias.NewManager(
		alias.ManagerOptions{Label: "scev+basic+rbaa"},
		scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}))
	qs := alias.Queries(m)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			mgr.Evaluate(q.P, q.Q)
		}
	})
	rep.Query = AnalysisQueryBench{
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
		BytesPerOp:  float64(res.AllocedBytesPerOp()),
	}
	if res.NsPerOp() > 0 {
		rep.Query.QueriesPerSec = 1e9 / float64(res.NsPerOp())
	}

	// Close the interner measurement window before the planner bench: its
	// own WideBatch chain builds would otherwise contaminate the
	// analysis-core trajectory the PR 4 baseline established.
	internedAfter, hitsAfter := internerCounters()
	rep.ExprsInterned = internedAfter - internedBefore
	rep.InternHits = hitsAfter - hitsBefore

	rep.Planner = benchPlanner()

	if base := loadAnalysisBaseline(); base != nil {
		rep.Baseline = base
		if rep.Query.AllocsPerOp > 0 {
			rep.AllocReductionX = base.Query.AllocsPerOp / rep.Query.AllocsPerOp
		}
		if rep.BuildTotalMS > 0 {
			rep.BuildSpeedupX = base.BuildTotalMS / rep.BuildTotalMS
		}
		if rep.Query.NsPerOp > 0 {
			rep.QuerySpeedupX = base.Query.NsPerOp / rep.Query.NsPerOp
		}
	}
	return rep
}

// benchPlanner measures the batch planner on the service chain over the
// wide-function module benchgen.WideBatch (the aliasload bigbatch workload
// in miniature: ~512 pointers, ~130k same-function pairs): a full
// all-pairs sweep per iteration, planner (plan + sweep/index) versus the
// Manager chain that the index is compiled from.
func benchPlanner() *PlannerBench {
	m := benchgen.WideBatch("widebatch", 512)
	newChain := func() *alias.Manager {
		return alias.NewManager(
			alias.ManagerOptions{Label: "scev+basic+rbaa+andersen"},
			scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}), andersen.Analyze(m))
	}
	qs := alias.Queries(m)
	if len(qs) == 0 {
		return nil
	}
	// Shard the enumeration by function, as the service pipeline does.
	type funcShard struct {
		pairs []alias.Pair
		vals  []*ir.Value
	}
	var shards []funcShard
	shardOf := map[*ir.Func]int{}
	for _, q := range qs {
		si, ok := shardOf[q.P.Func]
		if !ok {
			si = len(shards)
			shardOf[q.P.Func] = si
			shards = append(shards, funcShard{})
		}
		shards[si].pairs = append(shards[si].pairs, q)
		shards[si].vals = append(shards[si].vals, q.P, q.Q)
	}

	chain := newChain()
	mgrRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				chain.Evaluate(q.P, q.Q)
			}
		}
	})

	ix := alias.BuildIndex(chain, m)
	if ix == nil {
		return nil
	}
	pl := alias.NewPlanner(ix)
	sweep := func() {
		var tally alias.PlanTally
		for _, sh := range shards {
			plan := pl.Plan(sh.vals)
			for _, q := range sh.pairs {
				plan.Evaluate(q.P, q.Q, &tally)
			}
		}
		pl.Fold(tally)
	}
	sweep() // one counted sweep for the partition counters
	st := pl.Stats()
	plRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep()
		}
	})

	pb := &PlannerBench{
		Module:           m.Name,
		PairsPerSweep:    len(qs),
		Groups:           st.Groups,
		SweepNoAlias:     st.SweepNoAlias,
		IndexPairs:       st.IndexPairs,
		FallbackPairs:    st.FallbackPairs,
		FallbackRate:     st.FallbackRate(),
		ManagerNsPerPair: float64(mgrRes.NsPerOp()) / float64(len(qs)),
		PlannerNsPerPair: float64(plRes.NsPerOp()) / float64(len(qs)),
	}
	if pb.PlannerNsPerPair > 0 {
		pb.SpeedupX = pb.ManagerNsPerPair / pb.PlannerNsPerPair
	}
	return pb
}

// loadAnalysisBaseline parses the embedded pre-refactor numbers; nil when
// the embedded file is the empty bootstrap placeholder.
func loadAnalysisBaseline() *AnalysisReport {
	var base AnalysisReport
	if err := json.Unmarshal(analysisBaselineJSON, &base); err != nil || base.Schema == "" {
		return nil
	}
	base.Baseline = nil // never nest
	return &base
}

// WriteAnalysisJSON renders the report as indented JSON with a trailing
// newline.
func WriteAnalysisJSON(w io.Writer, rep AnalysisReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
