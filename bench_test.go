// Package repro's benchmark harness: one benchmark per table/figure of the
// paper's evaluation (§4), plus ablation benches for the design decisions
// DESIGN.md calls out. Precision results are reported as custom benchmark
// metrics (noalias percentages, correlation coefficients) alongside the
// usual time/op, so `go test -bench=. -benchmem` regenerates every number
// EXPERIMENTS.md records.
package repro

import (
	"sync"
	"testing"

	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pointer"
	"repro/internal/rangeanal"
)

// BenchmarkFig13 regenerates the precision comparison of Fig. 13 over the
// 22-program synthetic suite. Paper totals: %scev 6.97, %basic 30.83,
// %rbaa 41.73, %(r+b) 46.53.
func BenchmarkFig13(b *testing.B) {
	var total experiments.PrecisionRow
	for i := 0; i < b.N; i++ {
		total = experiments.Total(experiments.RunFig13Suite())
	}
	q := float64(total.Queries)
	b.ReportMetric(100*float64(total.Scev)/q, "%scev")
	b.ReportMetric(100*float64(total.Basic)/q, "%basic")
	b.ReportMetric(100*float64(total.Rbaa)/q, "%rbaa")
	b.ReportMetric(100*float64(total.RplusB)/q, "%r+b")
	b.ReportMetric(q, "queries")
}

// BenchmarkFig14 regenerates the global-test attribution of Fig. 14.
// Paper: 239,008 of 1,290,457 no-alias answers (18.52%) from the global
// test; the local test covers 6.55% of addresses; the rest come from
// comparing offsets of different locations.
func BenchmarkFig14(b *testing.B) {
	var total experiments.PrecisionRow
	for i := 0; i < b.N; i++ {
		total = experiments.Total(experiments.RunFig13Suite())
	}
	na := float64(total.Rbaa)
	b.ReportMetric(100*float64(total.Global)/na, "%global")
	b.ReportMetric(100*float64(total.Local)/na, "%local")
	b.ReportMetric(100*float64(total.Disjoint)/na, "%disjoint")
	b.ReportMetric(na, "noalias")
}

// BenchmarkFig15 regenerates the scalability experiment of Fig. 15 on a
// 30-program suite (use cmd/benchtables -fig 15 for the full 50). Paper:
// R(time, instructions) = 0.982, R(time, pointers) = 0.975, ~100k
// instructions/second.
func BenchmarkFig15(b *testing.B) {
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunFig15(30)
	}
	ri, rp := experiments.Fig15Correlations(rows)
	instrs, secs := 0, 0.0
	for _, r := range rows {
		instrs += r.Instrs
		secs += r.Elapsed.Seconds()
	}
	b.ReportMetric(ri, "R(instrs)")
	b.ReportMetric(rp, "R(ptrs)")
	b.ReportMetric(float64(instrs)/secs, "instrs/s")
}

// BenchmarkSymbolicRatio regenerates the §5 measurement: the fraction of
// pointers whose ranges are exclusively symbolic (paper: 20.47%).
func BenchmarkSymbolicRatio(b *testing.B) {
	var total experiments.PrecisionRow
	for i := 0; i < b.N; i++ {
		total = experiments.Total(experiments.RunFig13Suite())
	}
	b.ReportMetric(100*float64(total.SymOnly)/float64(total.SymTotal), "%symbolic-only")
}

// ablationSuite is a fixed subset of the Fig. 13 corpus used by the
// ablation benches (full-suite runs live in the Fig. 13/14 benches).
func ablationSuite() []benchgen.Config {
	return benchgen.Fig13Configs()[:8]
}

// runSuiteNoAlias counts rbaa no-alias answers over the ablation suite with
// the given analysis options and π-insertion choice.
func runSuiteNoAlias(b *testing.B, opts pointer.Options, skipESSA bool) (noalias, queries int) {
	b.Helper()
	for _, c := range ablationSuite() {
		c.SkipESSA = skipESSA
		m := benchgen.Generate(c)
		a := rbaa.New(m, opts)
		for _, q := range alias.Queries(m) {
			queries++
			if a.Alias(q.P, q.Q) == alias.NoAlias {
				noalias++
			}
		}
	}
	return noalias, queries
}

// BenchmarkAblationDescending compares the paper's 2-step descending
// sequence against none (design decision 1: widening at φ + descending
// recovers loop bounds). Measured two ways: the no-alias query rate, and
// the fraction of pointers whose GR upper bounds are all finite — the
// query rate barely moves (π-nodes already clamp the *body* copies during
// the ascending phase), but the bound precision drops visibly without the
// descending steps, exactly the Fig. 12 "growing iterations" picture.
func BenchmarkAblationDescending(b *testing.B) {
	finiteShare := func(opts pointer.Options) float64 {
		finite, total := 0, 0
		for _, c := range ablationSuite() {
			m := benchgen.Generate(c)
			a := rbaa.New(m, opts)
			for _, f := range m.Funcs {
				for _, v := range f.Values() {
					if v.Typ != ir.TPtr {
						continue
					}
					g := a.GR.Value(v)
					if g.IsTop() || g.IsBottom() {
						continue
					}
					total++
					allFinite := true
					for _, s := range g.Support() {
						r, _ := g.Get(s)
						if r.Hi().IsPosInf() {
							allFinite = false
						}
					}
					if allFinite {
						finite++
					}
				}
			}
		}
		return 100 * float64(finite) / float64(total)
	}
	var with, without, q int
	var fWith, fWithout float64
	for i := 0; i < b.N; i++ {
		with, q = runSuiteNoAlias(b, pointer.Options{DescendingSteps: 2,
			Range: rangeanal.Options{DescendingSteps: 2}}, false)
		without, _ = runSuiteNoAlias(b, pointer.Options{DescendingSteps: -1,
			Range: rangeanal.Options{DescendingSteps: -1}}, false)
		fWith = finiteShare(pointer.Options{DescendingSteps: 2,
			Range: rangeanal.Options{DescendingSteps: 2}})
		fWithout = finiteShare(pointer.Options{DescendingSteps: -1,
			Range: rangeanal.Options{DescendingSteps: -1}})
	}
	b.ReportMetric(100*float64(with)/float64(q), "%rbaa(desc=2)")
	b.ReportMetric(100*float64(without)/float64(q), "%rbaa(desc=0)")
	b.ReportMetric(fWith, "%finite(desc=2)")
	b.ReportMetric(fWithout, "%finite(desc=0)")
}

// BenchmarkAblationNoESSA measures what π-insertion buys (design decision
// 3): without e-SSA, loop pointers never meet their branch bounds and the
// global test loses its range information.
func BenchmarkAblationNoESSA(b *testing.B) {
	var with, without, q int
	for i := 0; i < b.N; i++ {
		with, q = runSuiteNoAlias(b, pointer.Options{}, false)
		without, _ = runSuiteNoAlias(b, pointer.Options{}, true)
	}
	b.ReportMetric(100*float64(with)/float64(q), "%rbaa(essa)")
	b.ReportMetric(100*float64(without)/float64(q), "%rbaa(no-essa)")
}

// BenchmarkAblationTopParams measures the interprocedural actual→formal
// linking of §3.1 against the fully conservative ⊤-parameter posture
// (design decision 5).
func BenchmarkAblationTopParams(b *testing.B) {
	var with, without, q int
	for i := 0; i < b.N; i++ {
		with, q = runSuiteNoAlias(b, pointer.Options{}, false)
		without, _ = runSuiteNoAlias(b, pointer.Options{TopParams: true}, false)
	}
	b.ReportMetric(100*float64(with)/float64(q), "%rbaa(linked)")
	b.ReportMetric(100*float64(without)/float64(q), "%rbaa(top-params)")
}

// BenchmarkAnalysisThroughput times the analysis mapping alone on one large
// module (the §1 "million instructions in ~10 seconds" claim, per-module).
func BenchmarkAnalysisThroughput(b *testing.B) {
	cfg := benchgen.ScalabilityConfigs(40)[39]
	m := benchgen.Generate(cfg)
	st := m.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(m, pointer.Options{})
	}
	b.ReportMetric(float64(st.Instrs), "instrs")
}

// BenchmarkAblationPointsToLoads measures the related-work extension: GR
// with Fig. 9's load-is-⊤ rule vs GR refined by the Andersen points-to
// oracle (loads keep their points-to support). The delta is the value of
// "sets of locations plus ranges" over ranges alone on load-heavy code.
func BenchmarkAblationPointsToLoads(b *testing.B) {
	var plain, refined, q int
	for i := 0; i < b.N; i++ {
		plain, refined, q = 0, 0, 0
		for _, c := range ablationSuite() {
			m := benchgen.Generate(c)
			pt := andersen.Analyze(m)
			a0 := rbaa.New(m, pointer.Options{})
			a1 := rbaa.New(m, pointer.Options{PointsTo: pt})
			for _, pr := range alias.Queries(m) {
				q++
				if a0.Alias(pr.P, pr.Q) == alias.NoAlias {
					plain++
				}
				if a1.Alias(pr.P, pr.Q) == alias.NoAlias {
					refined++
				}
			}
		}
	}
	b.ReportMetric(100*float64(plain)/float64(q), "%rbaa(load=top)")
	b.ReportMetric(100*float64(refined)/float64(q), "%rbaa(load=pts)")
}

// BenchmarkOptClient measures a *consumer* of the analyses: block-local
// redundant-load elimination over the Fig. 13 corpus, parameterized by the
// alias analysis feeding it. More precision ⇒ more loads eliminated —
// the practical payoff the paper's introduction promises for loop
// transformations and scalar optimizations.
func BenchmarkOptClient(b *testing.B) {
	counts := map[string]int{}
	for i := 0; i < b.N; i++ {
		counts = map[string]int{}
		for _, c := range benchgen.Fig13Configs()[:10] {
			for _, which := range []string{"basic", "rbaa"} {
				m := benchgen.Generate(c)
				var aa alias.Analysis
				if which == "basic" {
					aa = basicaa.New(m)
				} else {
					aa = rbaa.New(m, pointer.Options{})
				}
				for _, f := range m.Funcs {
					counts[which] += opt.EliminateRedundantLoads(f, aa)
				}
			}
		}
	}
	b.ReportMetric(float64(counts["basic"]), "loads-rle(basic)")
	b.ReportMetric(float64(counts["rbaa"]), "loads-rle(rbaa)")
}

// BenchmarkDriverFig13Suite compares the sequential and parallel experiment
// drivers end-to-end on the 22-program Fig. 13 suite (generation + analysis
// construction + query sweep). Tables are byte-identical either way (see
// experiments.TestParallelMatchesSequentialTables); only the wall clock
// changes.
func BenchmarkDriverFig13Suite(b *testing.B) {
	for _, bench := range []struct {
		name     string
		parallel int
	}{{"seq", 1}, {"par4", 4}} {
		b.Run(bench.name, func(b *testing.B) {
			d := &experiments.Driver{Parallel: bench.parallel}
			var total experiments.PrecisionRow
			for i := 0; i < b.N; i++ {
				total = experiments.Total(d.RunFig13Suite())
			}
			b.ReportMetric(float64(total.Queries)/b.Elapsed().Seconds()*float64(b.N), "queries/s")
		})
	}
}

// xlDriver lazily builds the scaleXL-2M program (~1.9M IR instructions, the
// large tier of the Fig. 15 suite) and a deterministic strided sample of
// its pointer-pair queries. Construction takes tens of seconds and is
// shared by the sequential and parallel driver benchmarks below.
var xlDriver struct {
	once sync.Once
	mgr  *alias.Manager
	qs   []alias.Pair
}

func xlDriverSetup(b *testing.B) {
	xlDriver.once.Do(func() {
		cfg := benchgen.XLScalabilityConfigs()[0]
		m := benchgen.Generate(cfg)
		// Member order matches experiments.NewPrecisionManager (Sweep
		// decodes positionally).
		xlDriver.mgr = alias.NewManager(
			alias.ManagerOptions{Label: "scev+basic+rbaa"},
			scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}))
		all := alias.Queries(m)
		const sample = 30000
		stride := len(all) / sample
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(all) && len(xlDriver.qs) < sample; i += stride {
			xlDriver.qs = append(xlDriver.qs, all[i])
		}
	})
}

// BenchmarkDriverXL compares sequential against parallel query-sweep
// throughput on the extra-large scalability program. The acceptance target
// is ≥2× queries/s for par4 over seq on a ≥4-core machine (GOMAXPROCS
// permitting; a single-core container cannot show the speedup).
func BenchmarkDriverXL(b *testing.B) {
	for _, bench := range []struct {
		name     string
		parallel int
	}{{"seq", 1}, {"par4", 4}} {
		b.Run(bench.name, func(b *testing.B) {
			xlDriverSetup(b)
			d := &experiments.Driver{Parallel: bench.parallel}
			b.ResetTimer()
			var row experiments.PrecisionRow
			for i := 0; i < b.N; i++ {
				row = d.Sweep(xlDriver.mgr, xlDriver.qs)
			}
			b.ReportMetric(float64(row.Queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(row.Rbaa)/float64(row.Queries)*100, "%rbaa")
		})
	}
}

// BenchmarkQueryThroughput times the query side, which the paper's Fig. 15
// methodology deliberately excludes.
func BenchmarkQueryThroughput(b *testing.B) {
	cfg := benchgen.Fig13Configs()[1] // espresso, the largest
	m := benchgen.Generate(cfg)
	a := rbaa.New(m, pointer.Options{})
	qs := alias.Queries(m)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if a.Alias(q.P, q.Q) == alias.NoAlias {
			n++
		}
	}
	_ = n
}
