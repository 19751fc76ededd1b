// Package experiments drives the reproduction of every table and figure of
// the paper's evaluation (§4): Fig. 13 (precision comparison), Fig. 14
// (global-test attribution), Fig. 15 (scalability/linearity) and the §5
// symbolic-pointer ratio. cmd/benchtables renders these as text tables;
// bench_test.go wraps them as Go benchmarks. EXPERIMENTS.md records the
// measured numbers next to the paper's.
//
// The pipeline is concurrent: a Driver fans benchmarks out across a worker
// pool and splits each benchmark's query sweep into chunks evaluated in
// parallel against an alias.Manager chaining scev → basic → rbaa. All
// reductions are sums of per-chunk counters, so the resulting rows — and
// the rendered tables — are byte-identical for every Parallel setting.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/alias"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/pool"
	"repro/internal/rangeanal"
	"repro/internal/stats"
)

// Driver runs the evaluation pipeline with a bounded worker pool
// (internal/pool, shared with the alias-query service). The zero value runs
// everything on the calling goroutine.
type Driver struct {
	// Parallel is the worker count for both benchmark fan-out and
	// per-benchmark query chunks. 0 or 1 means sequential; negative means
	// GOMAXPROCS.
	Parallel int
	// Indexed compiles each module's alias index and answers the precision
	// sweep through it (alias.Index.Evaluate): index-conclusive pairs skip
	// the chain walk, inconclusive pairs fall back to the Manager. Verdicts
	// are identical by construction, so every Fig. 13/14 number is
	// unchanged — only the sweep gets cheaper.
	Indexed bool
}

func (d *Driver) pool() *pool.Pool {
	if d == nil {
		return &pool.Pool{}
	}
	return &pool.Pool{Parallel: d.Parallel}
}

func (d *Driver) workers() int { return d.pool().Workers() }

// Chain order of the precision manager built by NewPrecisionManager;
// Sweep decodes member verdicts positionally against it, so a caller
// assembling its own alias.Manager for Sweep must use the same order.
const (
	MemberScev = iota
	MemberBasic
	MemberRbaa
)

// PrecisionRow is one benchmark's results for Fig. 13 and Fig. 14.
type PrecisionRow struct {
	Name    string
	Queries int
	// No-alias counts per analysis (Fig. 13).
	Scev, Basic, Rbaa, RplusB int
	// Attribution of rbaa's no-alias answers (Fig. 14).
	Disjoint, Global, Local int
	// §5 classification.
	SymOnly, SymTotal int
}

// add folds another partial row into r (all fields are plain sums).
func (r *PrecisionRow) add(o PrecisionRow) {
	r.Queries += o.Queries
	r.Scev += o.Scev
	r.Basic += o.Basic
	r.Rbaa += o.Rbaa
	r.RplusB += o.RplusB
	r.Disjoint += o.Disjoint
	r.Global += o.Global
	r.Local += o.Local
	r.SymOnly += o.SymOnly
	r.SymTotal += o.SymTotal
}

// NewPrecisionManager builds the evaluation chain of Fig. 13 — scev →
// basic → rbaa — over one module, returning the manager and the rbaa
// member (needed separately for the §5 ratio).
func NewPrecisionManager(m *ir.Module) (*alias.Manager, *rbaa.Analysis) {
	r := rbaa.New(m, pointer.Options{})
	mgr := alias.NewManager(
		alias.ManagerOptions{Label: "scev+basic+rbaa"},
		scevaa.New(m), basicaa.New(m), r)
	return mgr, r
}

// RunPrecision evaluates one module against the chained analyses, splitting
// the query sweep across the driver's workers. The analyses are built once
// and are immutable during the sweep (see pointer.Analyze); each chunk
// reduces into its own partial row and partial rows are summed in chunk
// order, so the result is independent of goroutine scheduling.
func (d *Driver) RunPrecision(name string, m *ir.Module) PrecisionRow {
	mgr, r := NewPrecisionManager(m)
	var row PrecisionRow
	if d != nil && d.Indexed {
		row = d.SweepIndexed(mgr, alias.BuildIndex(mgr, m), alias.Queries(m))
	} else {
		row = d.Sweep(mgr, alias.Queries(m))
	}
	row.Name = name
	row.SymOnly, row.SymTotal = r.SymbolicOnlyRatio()
	return row
}

// Sweep evaluates a fixed list of queries through a precision manager on
// the driver's worker pool, reducing per-chunk partial rows in chunk order.
// The manager must have been built by NewPrecisionManager (the member
// indices are decoded positionally).
func (d *Driver) Sweep(mgr *alias.Manager, qs []alias.Pair) PrecisionRow {
	for i, want := range []string{"scev", "basic", "rbaa"} {
		if mgr.NumMembers() <= i || mgr.MemberName(i) != want {
			panic(fmt.Sprintf("experiments.Sweep: manager member %d is not %q; build the chain like NewPrecisionManager", i, want))
		}
	}
	p := d.workers()
	if p <= 1 || len(qs) == 0 {
		return evalChunk(mgr, qs)
	}
	chunks := pool.Chunks(len(qs), pool.ChunkSize(len(qs), p))
	partials := make([]PrecisionRow, len(chunks))
	d.pool().ForEach(len(chunks), func(c int) {
		partials[c] = evalChunk(mgr, qs[chunks[c][0]:chunks[c][1]])
	})
	var row PrecisionRow
	for _, pr := range partials {
		row.add(pr)
	}
	return row
}

// SweepIndexed is Sweep routed through a compiled index: each pair is
// answered by alias.Index.Evaluate when the index is conclusive, by the
// manager otherwise. The manager must be the NewPrecisionManager chain and
// ix must have been built over it; a nil ix degrades to the plain sweep.
func (d *Driver) SweepIndexed(mgr *alias.Manager, ix *alias.Index, qs []alias.Pair) PrecisionRow {
	if ix == nil {
		return d.Sweep(mgr, qs)
	}
	for i, want := range []string{"scev", "basic", "rbaa"} {
		if mgr.NumMembers() <= i || mgr.MemberName(i) != want {
			panic(fmt.Sprintf("experiments.SweepIndexed: manager member %d is not %q; build the chain like NewPrecisionManager", i, want))
		}
	}
	eval := func(qs []alias.Pair) PrecisionRow {
		return evalChunkWith(qs, func(p, q *ir.Value) alias.Verdict {
			if v, ok := ix.Evaluate(p, q); ok {
				return v
			}
			return mgr.Evaluate(p, q)
		})
	}
	p := d.workers()
	if p <= 1 || len(qs) == 0 {
		return eval(qs)
	}
	chunks := pool.Chunks(len(qs), pool.ChunkSize(len(qs), p))
	partials := make([]PrecisionRow, len(chunks))
	d.pool().ForEach(len(chunks), func(c int) {
		partials[c] = eval(qs[chunks[c][0]:chunks[c][1]])
	})
	var row PrecisionRow
	for _, pr := range partials {
		row.add(pr)
	}
	return row
}

// evalChunk sweeps one slice of queries through the manager.
func evalChunk(mgr *alias.Manager, qs []alias.Pair) PrecisionRow {
	return evalChunkWith(qs, mgr.Evaluate)
}

// evalChunkWith reduces one slice of queries through any evaluator that
// produces chain verdicts in NewPrecisionManager member order.
func evalChunkWith(qs []alias.Pair, eval func(p, q *ir.Value) alias.Verdict) PrecisionRow {
	var row PrecisionRow
	for _, q := range qs {
		v := eval(q.P, q.Q)
		row.Queries++
		sNo := v.MemberNoAlias(MemberScev)
		bNo := v.MemberNoAlias(MemberBasic)
		rNo := v.MemberNoAlias(MemberRbaa)
		if sNo {
			row.Scev++
		}
		if bNo {
			row.Basic++
		}
		if rNo {
			row.Rbaa++
			switch v.Detail(MemberRbaa) {
			case pointer.ReasonDisjointSupport.String():
				row.Disjoint++
			case pointer.ReasonGlobalRange.String():
				row.Global++
			case pointer.ReasonLocalRange.String():
				row.Local++
			}
		}
		if rNo || bNo {
			row.RplusB++
		}
	}
	return row
}

// RunSuite evaluates a list of benchmark configs, fanning the benchmarks
// out across the driver's workers. Rows come back in config order. The
// worker budget is split between the two levels — p benchmarks in flight ×
// p/p′ sweep workers each — so the total stays at roughly d.Parallel
// instead of its square.
func (d *Driver) RunSuite(configs []benchgen.Config) []PrecisionRow {
	p := d.workers()
	outer := p
	if outer > len(configs) {
		outer = len(configs)
	}
	inner := &Driver{Parallel: 1, Indexed: d != nil && d.Indexed}
	if outer > 0 && p/outer > 1 {
		inner.Parallel = p / outer
	}
	rows := make([]PrecisionRow, len(configs))
	d.pool().ForEach(len(configs), func(i int) {
		rows[i] = inner.RunPrecision(configs[i].Name, benchgen.Generate(configs[i]))
	})
	return rows
}

// RunFig13Suite runs the whole 22-program suite.
func (d *Driver) RunFig13Suite() []PrecisionRow {
	return d.RunSuite(benchgen.Fig13Configs())
}

// RunPrecision evaluates one module sequentially (compatibility wrapper
// around Driver).
func RunPrecision(name string, m *ir.Module) PrecisionRow {
	return (&Driver{}).RunPrecision(name, m)
}

// RunFig13Suite runs the whole 22-program suite sequentially.
func RunFig13Suite() []PrecisionRow {
	return (&Driver{}).RunFig13Suite()
}

// Total sums precision rows.
func Total(rows []PrecisionRow) PrecisionRow {
	t := PrecisionRow{Name: "Total"}
	for _, r := range rows {
		t.add(r)
	}
	return t
}

// RenderFig13 prints the Fig. 13 table: per-program no-alias percentages of
// scev, basic, rbaa and the r+b combination.
func RenderFig13(w io.Writer, rows []PrecisionRow) {
	t := stats.NewTable("Program", "#Queries", "%scev", "%basic", "%rbaa", "%(r+b)")
	for _, r := range append(rows, Total(rows)) {
		t.Row(r.Name, r.Queries,
			stats.Pct(r.Scev, r.Queries), stats.Pct(r.Basic, r.Queries),
			stats.Pct(r.Rbaa, r.Queries), stats.Pct(r.RplusB, r.Queries))
	}
	t.Write(w)
}

// RenderFig14 prints the Fig. 14 table: no-alias counts and how many were
// produced by the global range test, plus the local/disjoint split that §4
// discusses in prose.
func RenderFig14(w io.Writer, rows []PrecisionRow) {
	t := stats.NewTable("Program", "#noalias", "#global", "#local", "#disjoint")
	for _, r := range append(rows, Total(rows)) {
		t.Row(r.Name, r.Rbaa, r.Global, r.Local, r.Disjoint)
	}
	total := Total(rows)
	t.Write(w)
	if total.Rbaa > 0 {
		fmt.Fprintf(w, "\nglobal test share: %s%% of no-alias answers (paper: 18.52%%)\n",
			stats.Pct(total.Global, total.Rbaa))
	}
}

// RenderRatio prints the §5 symbolic-only pointer ratio.
func RenderRatio(w io.Writer, rows []PrecisionRow) {
	total := Total(rows)
	fmt.Fprintf(w, "pointers with exclusively symbolic ranges: %d / %d = %s%% (paper: 20.47%%)\n",
		total.SymOnly, total.SymTotal, stats.Pct(total.SymOnly, total.SymTotal))
}

// ScaleRow is one program of the Fig. 15 scalability experiment.
type ScaleRow struct {
	Name     string
	Instrs   int
	Pointers int
	Elapsed  time.Duration
}

// RunScale times the *analysis mapping* only (range analysis + GR + LR) on
// each config, matching the paper's methodology: "we are counting only the
// time to map variables to values in SymbRanges. We do not count the time
// to query each pair of pointers."
//
// RunScale deliberately ignores the driver's parallelism: it is a *timing*
// experiment, so generation and analysis strictly interleave — one module
// live at a time, nothing else on the CPU during a timed region. Running
// generation (or other analyses) concurrently would inflate Elapsed by
// memory-bandwidth and scheduler contention and make the reported numbers
// depend on the worker count, which the determinism contract forbids.
func (d *Driver) RunScale(configs []benchgen.Config) []ScaleRow {
	rows := make([]ScaleRow, len(configs))
	for i, c := range configs {
		m := benchgen.Generate(c)
		st := m.Stats()
		start := time.Now()
		R := rangeanal.Analyze(m, rangeanal.Options{})
		gr := pointer.AnalyzeGR(m, R, pointer.Options{})
		lr := pointer.AnalyzeLR(m, R, pointer.Options{})
		elapsed := time.Since(start)
		_, _ = gr, lr
		rows[i] = ScaleRow{
			Name:     c.Name,
			Instrs:   st.Instrs,
			Pointers: st.Pointers,
			Elapsed:  elapsed,
		}
	}
	return rows
}

// RunFig15 generates n programs of growing size and times their analysis
// mapping (see RunScale).
func (d *Driver) RunFig15(n int) []ScaleRow {
	return d.RunScale(benchgen.ScalabilityConfigs(n))
}

// RunFig15 is the sequential compatibility wrapper around Driver.RunFig15.
func RunFig15(n int) []ScaleRow {
	return (&Driver{}).RunFig15(n)
}

// Fig15Correlations computes R(time, instructions) and R(time, pointers) —
// the paper reports 0.982 and 0.975.
func Fig15Correlations(rows []ScaleRow) (rInstr, rPtr float64) {
	var xs, ps, ts []float64
	for _, r := range rows {
		xs = append(xs, float64(r.Instrs))
		ps = append(ps, float64(r.Pointers))
		ts = append(ts, float64(r.Elapsed.Nanoseconds()))
	}
	return stats.Pearson(xs, ts), stats.Pearson(ps, ts)
}

// RenderFig15 prints the scalability series and the correlation summary.
func RenderFig15(w io.Writer, rows []ScaleRow) {
	t := stats.NewTable("Program", "#Instructions", "#Pointers", "Runtime(ms)")
	totalInstr, totalTime := 0, time.Duration(0)
	for _, r := range rows {
		t.Row(r.Name, r.Instrs, r.Pointers, float64(r.Elapsed.Microseconds())/1000.0)
		totalInstr += r.Instrs
		totalTime += r.Elapsed
	}
	t.Write(w)
	ri, rp := Fig15Correlations(rows)
	fmt.Fprintf(w, "\nlinear correlation R(time, instructions) = %.3f (paper: 0.982)\n", ri)
	fmt.Fprintf(w, "linear correlation R(time, pointers)     = %.3f (paper: 0.975)\n", rp)
	if totalTime > 0 {
		kips := float64(totalInstr) / totalTime.Seconds() / 1000.0
		fmt.Fprintf(w, "throughput: %.0fk instructions/second (paper: ~100k/s on an i7-4770K)\n", kips)
	}
}
