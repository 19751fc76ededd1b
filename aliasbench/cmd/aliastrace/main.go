// Command aliastrace is the aliasd benchmark's traced run. It replays one
// workload's uploads and a sample of its batches against an in-process
// service and prints the per-layer metrics that BENCHMARK.json lists.
//
// Lower layers are timed by calling their public functions separately on
// the same inputs: the build chain in the service's order on each module's
// text, and per shard the planner, the plan's evaluation and the compiled
// index on each batch's values. A layer's self time is its span minus those
// separately measured children. Spans are kept in memory and written, one
// JSON object per line, to -spans/<workload>-seed<seed>.jsonl when the run
// ends.
//
// The traced run calls into alias and the member analyses, so it is built
// apart from the timed command (cmd/aliasbench): a change that reshapes
// those layers breaks only this command.
//
// Usage (from the root of the repository):
//
//	bash aliasbench/run.sh --workload corpus --seed 0 --seconds 30 --trace 1
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/aliasbench/internal/bench"
	"repro/internal/alias"
	"repro/internal/benchgen"
)

func main() {
	workload := flag.String("workload", bench.BigBatch, "workload: bigbatch, corpus or scale")
	seed := flag.Int64("seed", 0, "input seed; 0 is the default inputs")
	flag.Int("seconds", 30, "accepted so that both commands take the same flags; the traced run replays a fixed sample")
	trace := flag.Int("trace", 1, "must be 1; the timed run is cmd/aliasbench")
	spans := flag.String("spans", "", "directory for the spans file (empty: do not write spans)")
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "aliastrace: the timed run is cmd/aliasbench")
		os.Exit(2)
	}
	correct, err := run(*workload, *seed, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aliastrace:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// sampleOf picks the batches the traced run replays: one round of the
// workload, and on corpus, whose round is short, four rounds.
func sampleOf(w *bench.Workload) []int {
	rounds := 1
	if w.Name == bench.Corpus {
		rounds = 4
	}
	var out []int
	for r := 0; r < rounds; r++ {
		for bi := range w.Batches {
			out = append(out, bi)
		}
	}
	return out
}

func run(workload string, seed int64, spansDir string) (bool, error) {
	w, err := bench.New(workload, seed)
	if err != nil {
		return false, err
	}
	tr := newTracer()

	// The build replica runs first, on a heap that holds no service.
	bs := &buildStats{retained: map[string]int64{}, points: map[string][][2]float64{}}
	cache := alias.NewIndexCache(0)
	for _, m := range w.Modules {
		if err := replicaBuild(tr, bs, cache, m.Name, m.Src, m.Instrs); err != nil {
			return false, err
		}
	}
	if w.Name == bench.BigBatch {
		// One module gives no slope: a half-size module of the same shape
		// adds the second point of the growth exponents, and nothing else.
		half := benchgen.WideBatch("bigbatch-half", 800)
		gs := &buildStats{retained: map[string]int64{}, points: bs.points}
		if err := replicaBuild(newTracer(), gs, nil, half.Name, half.String(), half.Stats().Instrs); err != nil {
			return false, err
		}
	}

	svc := bench.NewService()
	defer svc.Close()
	c := bench.NewClient(svc.Handler())
	buildGC, err := uploadAll(tr, c, w)
	if err != nil {
		return false, err
	}

	qs := &queryStats{}
	sample := sampleOf(w)
	hseed := maphash.MakeSeed()
	want, failedA := replayUntraced(c, w, sample, qs, hseed)
	failedB, err := replayTraced(tr, svc, c, w, sample, want, qs, hseed)
	if err != nil {
		return false, err
	}
	v, err := bench.NewVerifier(w)
	if err != nil {
		return false, err
	}
	if err := check(c, w, sample, want, v, hseed); err != nil {
		return false, err
	}
	checkErr := v.Finish()
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "aliastrace: check failed:", checkErr)
	}

	path, err := tr.Write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, w.Seed))
	if err != nil {
		return false, err
	}
	if path != "" {
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	fmt.Printf("tracing overhead: traced pairs_per_s %.0f beside untraced %.0f over the same %d batches\n",
		bench.Rate(int64(qs.pairs), qs.tracedTime), bench.Rate(int64(qs.untracedPairs), qs.untracedTime), len(sample))
	printStageHistograms(c)

	sums := tr.Sums()
	dur := func(layer string) time.Duration { return sums[layer].Dur }
	var children time.Duration
	for _, l := range buildChildren {
		children += dur(l)
	}
	pairs := float64(qs.pairs)
	perPair := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / pairs }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perInstrBytes := func(layer string) float64 { return float64(bs.retained[layer]) / float64(bs.instrs) }
	ms := []bench.Metric{
		{Name: "service.http_self_ns_per_pair", Unit: "ns", Value: perPair(dur(layerHTTP) - dur(layerPipeline))},
		{Name: "service.http_allocs_per_pair", Unit: "allocs", Value: float64(sums[layerHTTP].Mallocs) / pairs},
		{Name: "service.response_bytes_per_pair", Unit: "B", Value: float64(qs.respBytes) / pairs},
		{Name: "service.pipeline_self_ns_per_pair", Unit: "ns", Value: perPair(qs.pipelineSelf)},
		{Name: "alias.plan_ns_per_pair", Unit: "ns", Value: perPair(dur(layerPlan))},
		{Name: "alias.plan_eval_ns_per_pair", Unit: "ns", Value: perPair(dur(layerPlanEval))},
		{Name: "alias.index_eval_ns_per_pair", Unit: "ns", Value: perPair(dur(layerIndexEval))},
		{Name: "alias.index_eval_allocs_per_pair", Unit: "allocs", Value: float64(sums[layerIndexEval].Mallocs) / pairs},
		{Name: "alias.sweep_share", Unit: "ratio", Value: ratio(qs.tally.SweepNoAlias, qs.tally.Pairs)},
		{Name: "alias.fallback_share", Unit: "ratio", Value: ratio(qs.tally.FallbackPairs, qs.tally.Pairs)},
		{Name: "runtime.gc_cpu_share", Unit: "ratio", Value: qs.gcShare},
		{Name: "ir.parse_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerParse), bs.instrs)},
		{Name: "ir.verify_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerVerify), bs.instrs)},
		{Name: "rangeanal.ns_per_instr", Unit: "ns", Value: perInstr(dur(layerRange), bs.instrs)},
		{Name: "pointer.gr_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerGR), bs.instrs)},
		{Name: "pointer.lr_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerLR), bs.instrs)},
		{Name: "rbaa.ns_per_instr", Unit: "ns", Value: perInstr(dur(layerRbaa), bs.instrs)},
		{Name: "scevaa.ns_per_instr", Unit: "ns", Value: perInstr(dur(layerScev), bs.instrs)},
		{Name: "basicaa.ns_per_instr", Unit: "ns", Value: perInstr(dur(layerBasic), bs.instrs)},
		{Name: "andersen.ns_per_instr", Unit: "ns", Value: perInstr(dur(layerAndersen), bs.instrs)},
		{Name: "alias.index_build_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerIndex), bs.instrs)},
		{Name: "alias.reuse_hit_share", Unit: "ratio", Value: ratio(int64(bs.reused), int64(bs.funcs))},
		{Name: "service.upload_self_ns_per_instr", Unit: "ns", Value: perInstr(dur(layerUpload)-children, bs.instrs)},
		{Name: "ir.retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainIR)},
		{Name: "rbaa.retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainRbaa)},
		{Name: "scevaa.retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainScev)},
		{Name: "basicaa.retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainBasic)},
		{Name: "andersen.retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainAndersen)},
		{Name: "alias.index_retained_bytes_per_instr", Unit: "B", Value: perInstrBytes(retainIndex)},
		{Name: "alias.manager_retained_bytes_per_module", Unit: "B", Value: float64(bs.retained[retainManager]) / float64(bs.modules)},
		{Name: "andersen.retained_growth_exp", Unit: "exponent", Value: growthExp(bs.points[retainAndersen])},
		{Name: "alias.index_retained_growth_exp", Unit: "exponent", Value: growthExp(bs.points[retainIndex])},
		{Name: "symbolic.exprs_per_instr", Unit: "count", Value: float64(bs.exprs) / float64(bs.instrs)},
		{Name: "runtime.build_gc_cpu_share", Unit: "ratio", Value: buildGC},
	}
	attempted := int64(2 * len(sample))
	err = bench.PrintResult(checkErr == nil, attempted, int64(failedA+failedB), ms)
	return checkErr == nil, err
}

// printStageHistograms prints, for cross-reference, the service's own
// per-stage query histograms from /metrics as mean time per request.
func printStageHistograms(c *bench.Client) {
	code, body, err := c.Do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		fmt.Printf("metrics: GET /metrics failed: %d %v\n", code, err)
		return
	}
	const family = "aliasd_query_stage_duration_seconds"
	sums, counts := map[string]float64{}, map[string]float64{}
	var order []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		var dst map[string]float64
		switch {
		case strings.HasPrefix(line, family+"_sum{"):
			dst = sums
		case strings.HasPrefix(line, family+"_count{"):
			dst = counts
		default:
			continue
		}
		i, j := strings.Index(line, `stage="`), strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			continue
		}
		stage := line[i+len(`stage="`):]
		stage = stage[:strings.IndexByte(stage, '"')]
		val, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			continue
		}
		_, inSums := sums[stage]
		_, inCounts := counts[stage]
		if !inSums && !inCounts {
			order = append(order, stage)
		}
		dst[stage] = val
	}
	sort.SliceStable(order, func(i, j int) bool { return stageRank(order[i]) < stageRank(order[j]) })
	for _, st := range order {
		if counts[st] > 0 {
			fmt.Printf("metrics: stage %-9s %9.1f us/request over %.0f requests\n", st, sums[st]/counts[st]*1e6, counts[st])
		}
	}
}

// pipelineStages is the order a batch passes the service's stages.
var pipelineStages = []string{"decode", "validate", "shard", "plan", "evaluate", "aggregate", "encode"}

func stageRank(stage string) int {
	for i, s := range pipelineStages {
		if s == stage {
			return i
		}
	}
	return len(pipelineStages)
}
