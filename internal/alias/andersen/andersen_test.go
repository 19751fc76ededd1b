package andersen

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/progs"
	"repro/internal/ssa"
)

func find(t *testing.T, f *ir.Func, name string) *ir.Value {
	t.Helper()
	for _, v := range f.Values() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("value %s not found:\n%s", name, f)
	return nil
}

func TestDistinctMallocsDisjoint(t *testing.T) {
	m := progs.TwoBuffers()
	a := Analyze(m)
	f := m.Func("fill")
	p, q := find(t, f, "p"), find(t, f, "q")
	if a.Alias(p, q) != alias.NoAlias {
		t.Error("distinct mallocs must have disjoint points-to sets")
	}
	if a.Alias(p, p) != alias.MayAlias {
		t.Error("p vs p must be may-alias")
	}
}

func TestTracksThroughMemory(t *testing.T) {
	// q = malloc; *cell = q; r = loadp(cell): pts(r) must include q's site
	// — the capability GR deliberately lacks (loads are ⊤ in Fig. 9).
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.TVoid, ir.Param("n", ir.TInt))
	b := ir.NewBuilder(f)
	blk := b.Block("entry")
	b.SetBlock(blk)
	cell := b.Alloca(1, "cell")
	q := b.Malloc(f.Params[0], "q")
	other := b.Malloc(f.Params[0], "other")
	b.Store(cell, q)
	r := b.Load(ir.TPtr, cell, "r")
	b.Store(r, b.Int(1))
	b.Ret(nil)

	a := Analyze(m)
	set, unknown := a.PointsTo(r)
	if unknown {
		t.Fatalf("pts(r) must be known")
	}
	if len(set) != 1 {
		t.Fatalf("pts(r) = %v, want exactly q's site", set)
	}
	if a.Alias(r, q) != alias.MayAlias {
		t.Error("r and q must may-alias (same object)")
	}
	if a.Alias(r, other) != alias.NoAlias {
		t.Error("r and other must be no-alias")
	}
}

func TestExternPoisonsReachableMemory(t *testing.T) {
	// After publish(cell), a pointer loaded from cell is unknown.
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.TVoid, ir.Param("n", ir.TInt))
	b := ir.NewBuilder(f)
	blk := b.Block("entry")
	b.SetBlock(blk)
	cell := b.Alloca(1, "cell")
	q := b.Malloc(f.Params[0], "q")
	b.Store(cell, q)
	b.Extern("publish", ir.TVoid, "", cell)
	r := b.Load(ir.TPtr, cell, "r")
	b.Store(r, b.Int(1))
	b.Ret(nil)

	a := Analyze(m)
	if _, unknown := a.PointsTo(r); !unknown {
		t.Error("load from escaped memory must be ⊤")
	}
}

func TestEscapeIsTransitive(t *testing.T) {
	// outer holds a pointer to inner's cell; publishing outer poisons
	// loads from inner too.
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.TVoid, ir.Param("n", ir.TInt))
	b := ir.NewBuilder(f)
	blk := b.Block("entry")
	b.SetBlock(blk)
	outer := b.Alloca(1, "outer")
	inner := b.Alloca(1, "inner")
	q := b.Malloc(f.Params[0], "q")
	b.Store(inner, q)
	b.Store(outer, inner)
	b.Extern("publish", ir.TVoid, "", outer)
	r := b.Load(ir.TPtr, inner, "r")
	b.Store(r, b.Int(1))
	b.Ret(nil)

	a := Analyze(m)
	if _, unknown := a.PointsTo(r); !unknown {
		t.Error("escape must close transitively through stored pointers")
	}
}

func TestUncalledParamsUnknown(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.TVoid, ir.Param("p", ir.TPtr))
	b := ir.NewBuilder(f)
	blk := b.Block("entry")
	b.SetBlock(blk)
	b.Store(f.Params[0], b.Int(1))
	b.Ret(nil)
	a := Analyze(m)
	if _, unknown := a.PointsTo(f.Params[0]); !unknown {
		t.Error("externally callable parameter must be ⊤")
	}
}

func TestInterproceduralFlow(t *testing.T) {
	m := progs.MessageBuffer()
	a := Analyze(m)
	prepare := m.Func("prepare")
	// p receives main's first malloc; m receives the second.
	sp, up := a.PointsTo(prepare.Params[0])
	sm, um := a.PointsTo(prepare.Params[2])
	if up || um {
		t.Fatalf("linked params must be known")
	}
	if a.Alias(prepare.Params[0], prepare.Params[2]) != alias.NoAlias {
		t.Errorf("p (%v) and m (%v) must be disjoint", sp, sm)
	}
}

// TestPointsToRefinesGRLoads: the related-work combination — with the
// oracle, a pointer reloaded from memory keeps a usable support instead of
// ⊤, so GR can again separate it from unrelated allocations.
func TestPointsToRefinesGRLoads(t *testing.T) {
	build := func() (*ir.Module, *ir.Value, *ir.Value) {
		m := ir.NewModule("t")
		f := m.NewFunc("f", ir.TVoid, ir.Param("n", ir.TInt))
		b := ir.NewBuilder(f)
		blk := b.Block("entry")
		b.SetBlock(blk)
		cell := b.Alloca(1, "cell")
		q := b.Malloc(f.Params[0], "q")
		other := b.Malloc(f.Params[0], "other")
		b.Store(cell, q)
		r := b.Load(ir.TPtr, cell, "r")
		b.Store(r, b.Int(1))
		b.Store(other, b.Int(2))
		b.Ret(nil)
		ssa.InsertPi(f)
		return m, r, other
	}

	// Without the oracle: load is ⊤, query is may.
	m1, r1, o1 := build()
	plain := pointer.Analyze(m1, pointer.Options{})
	if ans, _ := plain.Query(r1, o1); ans != pointer.MayAlias {
		t.Fatalf("without oracle: want may-alias (loads are ⊤)")
	}
	// With the oracle: support {q} vs {other} — disjoint.
	m2, r2, o2 := build()
	pt := Analyze(m2)
	refined := pointer.Analyze(m2, pointer.Options{PointsTo: pt})
	ans, why := refined.Query(r2, o2)
	if ans != pointer.NoAlias {
		t.Fatalf("with oracle: want no-alias, got %s (GR(r)=%s)", ans, refined.GR.Value(r2))
	}
	if why != pointer.ReasonDisjointSupport {
		t.Errorf("attribution = %s, want disjoint-support", why)
	}
}

// TestSparseSolverProperties: representation-level invariants of the
// sparse-set solver on a corpus module and on mergeModule, whose sets span
// several words — symmetric Alias answers, sorted PointsTo output,
// self-queries never no-alias, Alias agreeing with the intersection of the
// PointsTo sets, and deterministic re-analysis.
func TestSparseSolverProperties(t *testing.T) {
	for _, m := range []*ir.Module{progs.MessageBuffer(), mergeModule()} {
		checkSolverProperties(t, m)
	}
}

func checkSolverProperties(t *testing.T, m *ir.Module) {
	t.Helper()
	a1 := Analyze(m)
	a2 := Analyze(m)
	for _, f := range m.Funcs {
		vals := f.Values()
		for _, v := range vals {
			if v.Typ != ir.TPtr {
				continue
			}
			s1, u1 := a1.PointsTo(v)
			s2, u2 := a2.PointsTo(v)
			if u1 != u2 || len(s1) != len(s2) {
				t.Fatalf("re-analysis diverged for %s", v.Name)
			}
			for i := range s1 {
				if s1[i] != s2[i] {
					t.Fatalf("re-analysis diverged for %s", v.Name)
				}
				if i > 0 && s1[i-1] >= s1[i] {
					t.Fatalf("PointsTo(%s) not sorted ascending: %v", v.Name, s1)
				}
			}
			if !u1 && len(s1) > 0 && a1.Alias(v, v) != alias.MayAlias {
				t.Fatalf("%s must may-alias itself", v.Name)
			}
		}
		for i, p := range vals {
			if p.Typ != ir.TPtr {
				continue
			}
			for _, q := range vals[i+1:] {
				if q.Typ != ir.TPtr {
					continue
				}
				if a1.Alias(p, q) != a1.Alias(q, p) {
					t.Fatalf("Alias(%s,%s) not symmetric", p.Name, q.Name)
				}
				sp, up := a1.PointsTo(p)
				sq, uq := a1.PointsTo(q)
				want := alias.NoAlias
				if up || uq || intersect(sp, sq) {
					want = alias.MayAlias
				}
				if got := a1.Alias(p, q); got != want {
					t.Fatalf("Alias(%s,%s) = %v, want %v from PointsTo %v / %v", p.Name, q.Name, got, want, sp, sq)
				}
			}
		}
	}
}

// intersect reports whether two ascending site lists share a site.
func intersect(a, b []int) bool {
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			return true
		}
	}
	return false
}

// TestArenaMatchesModel drives the solver's sparse-set arena with random
// adds, unions (from scratch runs and from other sets, so sets relocate
// while their sources sit in the same arena) and delta takes, and checks
// every set against a map model after each step: contents in ascending
// order with no zero word, the grew/was-clear reports, each delta against
// the bits added since the last one, and the ⊤ test.
func TestArenaMatchesModel(t *testing.T) {
	const sets, universe, top = 12, 700, 700
	rng := rand.New(rand.NewSource(7))
	a := newArena(sets)
	model := make([]map[int]bool, sets)
	done := make([]map[int]bool, sets)
	for i := range model {
		model[i], done[i] = map[int]bool{}, map[int]bool{}
	}
	runOf := func(bits map[int]bool) ([]int32, []uint64) {
		var ks []int
		for b := range bits {
			ks = append(ks, b)
		}
		sort.Ints(ks)
		var ki []int32
		var kw []uint64
		for _, b := range ks {
			if n := len(ki); n > 0 && ki[n-1] == int32(b>>6) {
				kw[n-1] |= 1 << uint(b&63)
				continue
			}
			ki = append(ki, int32(b>>6))
			kw = append(kw, 1<<uint(b&63))
		}
		return ki, kw
	}
	randomBits := func() map[int]bool {
		out := map[int]bool{}
		for n := rng.Intn(4); n > 0; n-- {
			out[rng.Intn(universe+1)] = true
		}
		return out
	}
	for step := 0; step < 600; step++ {
		d := int32(rng.Intn(sets))
		var grew bool
		before := len(model[d])
		switch rng.Intn(4) {
		case 0:
			b := rng.Intn(universe + 1)
			grew = a.add(d, b)
			model[d][b] = true
		case 1:
			bits := randomBits()
			ki, kw := runOf(bits)
			grew = a.union(d, ki, kw)
			for b := range bits {
				model[d][b] = true
			}
		case 2:
			src := int32(rng.Intn(sets))
			if src == d {
				continue
			}
			ki, kw := a.get(src)
			grew = a.union(d, ki, kw)
			for b := range model[src] {
				model[d][b] = true
			}
		case 3:
			fresh := map[int]bool{}
			for b := range model[d] {
				if !done[d][b] {
					fresh[b] = true
				}
			}
			ki, kw := a.takeDelta(d, nil, nil)
			if wi, ww := runOf(fresh); !slices.Equal(ki, wi) || !slices.Equal(kw, ww) {
				t.Fatalf("step %d: delta of set %d = %v/%x, model %v/%x", step, d, ki, kw, wi, ww)
			}
			done[d] = maps.Clone(model[d])
			before = -1
		}
		if before >= 0 && grew != (len(model[d]) > before) {
			t.Fatalf("step %d: set %d grew=%v, model went %d -> %d", step, d, grew, before, len(model[d]))
		}
		// Every set, so a union that moved its target is seen to leave
		// its source (and every other set) intact.
		for s := int32(0); s < sets; s++ {
			ki, kw := a.get(s)
			wi, ww := runOf(model[s])
			if !slices.Equal(ki, wi) || !slices.Equal(kw, ww) {
				t.Fatalf("step %d: set %d = %v/%x, model %v/%x", step, s, ki, kw, wi, ww)
			}
			if a.top(s, top) != model[s][top] {
				t.Fatalf("step %d: set %d top = %v, model %v", step, s, a.top(s, top), model[s][top])
			}
		}
	}
}
