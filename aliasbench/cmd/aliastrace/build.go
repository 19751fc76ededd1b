package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/aliasbench/internal/bench"
	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/rangeanal"
	"repro/internal/symbolic"
)

// Build-phase layer names, in the order the service's build runs them.
const (
	layerParse     = "ir.parse"
	layerVerify    = "ir.verify"
	layerScev      = "scevaa.new"
	layerBasic     = "basicaa.new"
	layerRange     = "rangeanal.analyze"
	layerGR        = "pointer.gr"
	layerLR        = "pointer.lr"
	layerRbaa      = "rbaa.new"
	layerAndersen  = "andersen.analyze"
	layerManager   = "alias.manager"
	layerIndex     = "alias.index_build"
	layerUpload    = "service.upload"
	retainIR       = "ir"
	retainScev     = "scevaa"
	retainBasic    = "basicaa"
	retainRbaa     = "rbaa"
	retainAndersen = "andersen"
	retainManager  = "alias.manager"
	retainIndex    = "alias.index"
)

// buildChildren are the phases the service's upload runs; its self time is
// the upload span minus these. rangeanal, GR and LR are rbaa's parts, timed
// apart on a throwaway interner, so they are not children of the upload.
var buildChildren = []string{layerParse, layerVerify, layerScev, layerBasic, layerRbaa, layerAndersen, layerManager, layerIndex}

// buildStats accumulates what the build replica measures.
type buildStats struct {
	instrs   int
	retained map[string]int64 // bytes per phase, summed over modules
	modules  int
	funcs    int // functions indexed
	reused   int // of which served by the reuse cache
	exprs    int64
	// points holds (instructions, retained bytes) per module for the
	// growth exponents.
	points map[string][][2]float64
}

// replicaBuild runs the service's build chain on one module's text through
// the layers' public functions, in the service's order, timing each phase
// as a span and recording the live heap each phase adds with the earlier
// phases still live. cache plays the service's reuse cache.
func replicaBuild(tr *Tracer, bs *buildStats, cache *alias.IndexCache, name, src string, instrs int) error {
	req := "build:" + name
	add := func(layer string, f func()) { tr.Call(req, layer, 0, f).Instrs = instrs }
	heap := bench.LiveHeap()
	retain := func(layer string) {
		h := bench.LiveHeap()
		bs.retained[layer] += h - heap
		bs.points[layer] = append(bs.points[layer], [2]float64{float64(instrs), float64(h - heap)})
		heap = h
	}

	var m *ir.Module
	var err error
	add(layerParse, func() { m, err = ir.Parse(src) })
	if err != nil {
		return fmt.Errorf("%s: parse: %v", name, err)
	}
	add(layerVerify, func() { err = ir.Verify(m) })
	if err != nil {
		return fmt.Errorf("%s: verify: %v", name, err)
	}
	retain(retainIR)

	// rbaa's three parts, on an interner that is dropped afterwards so the
	// module's own interner starts as empty as the service's does.
	{
		split := symbolic.NewInterner()
		var R *rangeanal.Result
		add(layerRange, func() { R = rangeanal.Analyze(m, rangeanal.Options{Interner: split}) })
		add(layerGR, func() { pointer.AnalyzeGR(m, R, pointer.Options{Interner: split}) })
		add(layerLR, func() { pointer.AnalyzeLR(m, R, pointer.Options{Interner: split}) })
	}
	heap = bench.LiveHeap()

	in := symbolic.NewInterner()
	var sc *scevaa.Analysis
	add(layerScev, func() { sc = scevaa.New(m) })
	retain(retainScev)
	var ba *basicaa.Analysis
	add(layerBasic, func() { ba = basicaa.New(m) })
	retain(retainBasic)
	var rb *rbaa.Analysis
	add(layerRbaa, func() { rb = rbaa.New(m, pointer.Options{Interner: in}) })
	retain(retainRbaa)
	var an *andersen.Result
	add(layerAndersen, func() { an = andersen.Analyze(m) })
	retain(retainAndersen)
	var mgr *alias.Manager
	add(layerManager, func() { mgr = alias.NewManager(alias.ManagerOptions{}, sc, ba, rb, an) })
	retain(retainManager)
	var ix *alias.Index
	var reused int
	add(layerIndex, func() { ix, reused = alias.BuildIndexCached(mgr, m, cache) })
	if ix == nil {
		return fmt.Errorf("%s: the chain did not compile to an index", name)
	}
	retain(retainIndex)

	// Every phase's product stays live to the end, as in the service's
	// handle; without this the collector could reclaim the member analyses
	// once the index no longer needs them, and the last phase would show
	// their bytes as freed.
	runtime.KeepAlive(m)
	runtime.KeepAlive(mgr)
	runtime.KeepAlive(ix)

	bs.instrs += instrs
	bs.modules++
	bs.funcs += ix.NumFuncs()
	bs.reused += reused
	bs.exprs += in.Stats().Interned
	return nil
}

// growthExp is the least-squares slope of log(bytes) against
// log(instructions); 1 is linear growth. Points with no retained bytes are
// left out. It is 0 with fewer than two usable points.
func growthExp(points [][2]float64) float64 {
	var xs, ys []float64
	for _, p := range points {
		if p[0] > 0 && p[1] > 0 {
			xs = append(xs, math.Log(p[0]))
			ys = append(ys, math.Log(p[1]))
		}
	}
	if len(xs) < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// gcCPU reads the runtime's GC CPU and the CPU the process's Ps used.
type gcCPU struct{ gc, used float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

// share returns the GC share of the CPU used since a.
func (b gcCPU) share(a gcCPU) float64 {
	if b.used <= a.used {
		return 0
	}
	return (b.gc - a.gc) / (b.used - a.used)
}

// uploadAll uploads every module through the handler, one span each, and
// returns the GC share of the CPU the uploads used.
func uploadAll(tr *Tracer, c *bench.Client, w *bench.Workload) (float64, error) {
	g0 := readGCCPU()
	for _, m := range w.Modules {
		var err error
		sp := tr.Call("upload:"+m.Name, layerUpload, 0, func() { err = c.Upload(m) })
		sp.Instrs = m.Instrs
		if err != nil {
			return 0, err
		}
	}
	return readGCCPU().share(g0), nil
}

// perInstr divides a duration by an instruction count, in ns.
func perInstr(d time.Duration, instrs int) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(instrs)
}
