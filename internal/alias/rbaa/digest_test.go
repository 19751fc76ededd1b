package rbaa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/symbolic"
)

// digestModules are the property test's inputs: the 22 Fig. 13 programs,
// the Fig. 15 programs [4] to [24], WideBatch(1600) and four random
// benchgen programs.
func digestModules() []*ir.Module {
	var mods []*ir.Module
	for _, c := range benchgen.Fig13Configs() {
		mods = append(mods, benchgen.Generate(c))
	}
	cfgs := benchgen.ScalabilityConfigs(50)
	for _, c := range cfgs[4:25] {
		mods = append(mods, benchgen.Generate(c))
	}
	mods = append(mods, benchgen.WideBatch("wide", 1600))
	rng := rand.New(rand.NewSource(20261020))
	for i := 0; i < 4; i++ {
		mods = append(mods, benchgen.Generate(benchgen.Config{
			Name:    fmt.Sprintf("rand%d", i),
			Seed:    rng.Int63(),
			Workers: 3 + rng.Intn(8),
			Mix: benchgen.Mix{
				Message: rng.Intn(4), Stride: rng.Intn(4), Fields: rng.Intn(4),
				MultiObj: rng.Intn(4), Chase: rng.Intn(3), Soup: rng.Intn(3),
				Cond: rng.Intn(3), Local: 1 + rng.Intn(3),
			},
		}))
	}
	return mods
}

// TestCompiledCompareMatchesProver is the bound digests' differential
// property: within every function of digestModules, the column's Compare
// over two digested bounds (GR bounds and LR offsets) must return the same
// Order as symbolic.Compare over the expressions they digest, in both
// orders. Two bounds must share a digest exactly when they are one
// expression. Functions with more than maxPairs ordered pairs are sampled.
func TestCompiledCompareMatchesProver(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 48 modules")
	}
	for o := symbolic.OUnknown; o <= symbolic.OGt; o++ {
		if got := alias.Order(o).String(); got != o.String() {
			t.Fatalf("alias.Order(%d) renders %q, symbolic.Order(%d) %q", o, got, o, o.String())
		}
	}
	const maxPairs = 20000
	rng := rand.New(rand.NewSource(1))
	var compares, minMaxBounds, minMaxDecided, bounds int
	for _, m := range digestModules() {
		a := New(m, pointer.Options{Interner: symbolic.NewInterner()})
		for _, f := range m.Funcs {
			var universe []*ir.Value
			for _, v := range f.Values() {
				if v.Typ == ir.TPtr {
					universe = append(universe, v)
				}
			}
			if len(universe) == 0 {
				continue
			}
			c := a.RangeDigests(f, universe)
			// The distinct bounds of the function, with their digests.
			var exprs []*symbolic.Expr
			var digs []alias.Bound
			byDigest := map[alias.Bound]*symbolic.Expr{}
			byExpr := map[*symbolic.Expr]alias.Bound{}
			add := func(e *symbolic.Expr, d alias.Bound) {
				bounds++
				if prev, ok := byDigest[d]; ok && prev != e {
					t.Fatalf("%s/%s: %s and %s share the digest %+v", m.Name, f.Name, prev, e, d)
				}
				if prev, ok := byExpr[e]; ok {
					if prev != d {
						t.Fatalf("%s/%s: %s digests to %+v and %+v", m.Name, f.Name, e, prev, d)
					}
					return
				}
				byDigest[d], byExpr[e] = e, d
				exprs, digs = append(exprs, e), append(digs, d)
				if k := e.Kind(); k == symbolic.KMin || k == symbolic.KMax {
					minMaxBounds++
				}
			}
			for i, v := range universe {
				if g := a.GR.Value(v); !g.IsTop() {
					rs := c.Ranges[c.Start[i]:c.Start[i+1]]
					for k := range rs {
						_, r := g.Range(k)
						add(r.Lo(), alias.Bound{Shape: rs[k].LoShape, K: rs[k].Lo})
						add(r.Hi(), alias.Bound{Shape: rs[k].HiShape, K: rs[k].Hi})
					}
				}
				add(a.LR.Offset(v), alias.Bound{Shape: c.LRShape[i], K: c.LRK[i]})
			}
			check := func(x, y int) {
				compares++
				want := symbolic.Compare(exprs[x], exprs[y])
				got := c.Compare(digs[x], digs[y])
				if uint8(got) != uint8(want) {
					t.Fatalf("%s/%s: Compare(%s, %s) = %v over digests %+v, %+v; the prover says %v",
						m.Name, f.Name, exprs[x], exprs[y], got, digs[x], digs[y], want)
				}
				if sx, sy := digs[x].Shape, digs[y].Shape; sx != sy && sx >= 0 && sy >= 0 && got != alias.OUnknown {
					minMaxDecided++ // neither one shape nor an infinity: the min/max rule decided
				}
			}
			if n := len(exprs); n*n <= maxPairs {
				for x := range n {
					for y := range n {
						check(x, y)
					}
				}
			} else {
				for range maxPairs {
					check(rng.Intn(n), rng.Intn(n))
				}
			}
		}
	}
	t.Logf("%d compares over %d bounds, %d distinct min or max bounds; the min/max rule decided %d compares",
		compares, bounds, minMaxBounds, minMaxDecided)
	if minMaxDecided == 0 {
		t.Error("the min/max rule decided no compare; it went untested")
	}
}

// fuzzExprs runs data as a small stack program over one interner and
// returns the stack: symbols, constants (small ones and neighbours of
// ±2^63), the infinities, Add, AddConst, Min, Max and Mul, nested as
// deep as the program goes. Operations that would panic on an infinity
// (Add of opposite infinities, Mul of an infinity) are skipped.
func fuzzExprs(in *symbolic.Interner, data []byte) []*symbolic.Expr {
	var st []*symbolic.Expr
	konst := func(b byte) int64 {
		switch b % 4 {
		case 0:
			return int64(int8(b)) >> 2
		case 1:
			return math.MaxInt64 - int64(b>>4)
		case 2:
			return math.MinInt64 + int64(b>>4)
		}
		return int64(int8(b)) << 55
	}
	for i := 0; i+1 < len(data) && len(st) < 16; i += 2 {
		op, arg := data[i]%10, data[i+1]
		if op >= 4 && op != 5 && len(st) < 2 || op == 5 && len(st) < 1 {
			op = arg % 2 // too few operands: push a leaf instead
		}
		switch op {
		case 0:
			st = append(st, in.Sym(fmt.Sprintf("s%d", arg%4)))
		case 1:
			st = append(st, in.Const(konst(arg)))
		case 2:
			st = append(st, symbolic.NegInf())
		case 3:
			st = append(st, symbolic.PosInf())
		case 5:
			st[len(st)-1] = symbolic.AddConst(st[len(st)-1], konst(arg))
		default:
			x, y := st[len(st)-2], st[len(st)-1]
			var e *symbolic.Expr
			switch op {
			case 4:
				if x.IsNegInf() && y.IsPosInf() || x.IsPosInf() && y.IsNegInf() {
					continue
				}
				e = symbolic.Add(x, y)
			case 6:
				e = symbolic.Min(x, y)
			case 7:
				e = symbolic.Max(x, y)
			default:
				if x.IsInf() || y.IsInf() {
					continue
				}
				e = symbolic.Mul(x, y)
			}
			st = append(st[:len(st)-2], e)
		}
	}
	return st
}

// FuzzCompareDigest checks the compiled compare against symbolic.Compare
// on fuzzed expressions: every ordered pair of the expressions fuzzExprs
// builds, digested over one shape table, must compare to the same Order
// both ways, and two share a digest exactly when they are one expression.
func FuzzCompareDigest(f *testing.F) {
	const (
		sym, cst, addC, add, mn, mx, mul = 0, 1, 5, 4, 6, 7, 8
	)
	f.Add([]byte{sym, 0, cst, 1, add, 0, sym, 0, cst, 5, add, 0})
	f.Add([]byte{cst, 8, cst, 2, sym, 1, addC, 1, sym, 1, addC, 2})
	f.Add([]byte{sym, 0, addC, 1, sym, 1, mx, 0, sym, 0, addC, 2})
	f.Add([]byte{sym, 0, sym, 1, mn, 0, addC, 4, sym, 2, mn, 0, sym, 0, addC, 8})
	f.Add([]byte{sym, 0, sym, 1, mul, 0, cst, 3, add, 0, sym, 0, sym, 1, mul, 0})
	f.Add([]byte{sym, 0, 2, 0, mx, 0, sym, 1, 3, 0, mn, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		exprs := fuzzExprs(symbolic.NewInterner(), data)
		tab := newShapeTable()
		digs := make([]alias.Bound, len(exprs))
		for i, e := range exprs {
			digs[i] = tab.digest(e)
		}
		var c alias.RangeColumn
		tab.fill(&c)
		for x := range exprs {
			for y := range exprs {
				if (digs[x] == digs[y]) != (exprs[x] == exprs[y]) {
					t.Fatalf("%s and %s: digests %+v and %+v", exprs[x], exprs[y], digs[x], digs[y])
				}
				want := symbolic.Compare(exprs[x], exprs[y])
				if got := c.Compare(digs[x], digs[y]); uint8(got) != uint8(want) {
					t.Fatalf("Compare(%s, %s) = %v over digests %+v, %+v; the prover says %v",
						exprs[x], exprs[y], got, digs[x], digs[y], want)
				}
			}
		}
	})
}
