package symbolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want string
	}{
		{Add(Const(2), Const(3)), "5"},
		{Sub(Const(2), Const(3)), "-1"},
		{Mul(Const(4), Const(3)), "12"},
		{Div(Const(7), Const(2)), "3"},
		{Div(Const(-7), Const(2)), "-3"},
		{Mod(Const(7), Const(3)), "1"},
		{Min(Const(2), Const(5)), "2"},
		{Max(Const(2), Const(5)), "5"},
		{Neg(Const(4)), "-4"},
	}
	for _, c := range cases {
		if c.got.String() != c.want {
			t.Errorf("got %s, want %s", c.got, c.want)
		}
	}
}

func TestLinearCanonicalization(t *testing.T) {
	n := Sym("N")
	m := Sym("M")
	// N + M == M + N
	if !Equal(Add(n, m), Add(m, n)) {
		t.Errorf("addition not commutative after canonicalization")
	}
	// (N + 1) - 1 == N
	if got := Sub(AddConst(n, 1), Const(1)); !Equal(got, n) {
		t.Errorf("(N+1)-1 = %s, want N", got)
	}
	// N - N == 0
	if got := Sub(n, n); !Equal(got, Zero()) {
		t.Errorf("N-N = %s, want 0", got)
	}
	// 2*N + 3*N == 5*N
	if got, want := Add(Mul(Const(2), n), Mul(Const(3), n)), Mul(Const(5), n); !Equal(got, want) {
		t.Errorf("2N+3N = %s, want %s", got, want)
	}
	// N + M - M == N
	if got := Sub(Add(n, m), m); !Equal(got, n) {
		t.Errorf("N+M-M = %s, want N", got)
	}
	// Opaque atoms cancel: min(N,M) - min(N,M) == 0
	mn := Min(n, m)
	if got := Sub(mn, mn); !Equal(got, Zero()) {
		t.Errorf("min(N,M)-min(N,M) = %s, want 0", got)
	}
}

func TestCompareConstants(t *testing.T) {
	if got := Compare(Const(1), Const(2)); got != OLt {
		t.Errorf("1 vs 2 = %v", got)
	}
	if got := Compare(Const(2), Const(1)); got != OGt {
		t.Errorf("2 vs 1 = %v", got)
	}
	if got := Compare(Const(2), Const(2)); got != OEq {
		t.Errorf("2 vs 2 = %v", got)
	}
}

func TestCompareSymbolic(t *testing.T) {
	n := Sym("N")
	m := Sym("M")
	// N < N+1 (the paper's example).
	if got := Compare(n, AddConst(n, 1)); got != OLt {
		t.Errorf("N vs N+1 = %v, want <", got)
	}
	// No relation between N and M.
	if got := Compare(n, m); got != OUnknown {
		t.Errorf("N vs M = %v, want unknown", got)
	}
	// N+M-1 < N+M.
	a := AddConst(Add(n, m), -1)
	b := Add(n, m)
	if got := Compare(a, b); got != OLt {
		t.Errorf("N+M-1 vs N+M = %v, want <", got)
	}
	// 2N vs N unknown (sign of N unknown).
	if got := Compare(Mul(Const(2), n), n); got != OUnknown {
		t.Errorf("2N vs N = %v, want unknown", got)
	}
}

// TestCompareConstantsNearOverflow orders constants near ±2^63, where the
// difference of the two constants does not fit in an int64: b − a wraps,
// so Compare must order the constants themselves, not the sign of their
// difference.
func TestCompareConstantsNearOverflow(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	n, m := Sym("N"), Sym("M")
	cases := []struct {
		name string
		a, b *Expr
		want Order
	}{
		{"2^62 vs -2^63+10", Const(1 << 62), Const(lo + 10), OGt},
		{"-2^63+10 vs 2^62", Const(lo + 10), Const(1 << 62), OLt},
		{"-2^63 vs 2^63-1", Const(lo), Const(hi), OLt},
		{"2^63-1 vs -2^63", Const(hi), Const(lo), OGt},
		{"-2^63 vs 1", Const(lo), Const(1), OLt},
		{"-2^63 vs -2^63+1", Const(lo), Const(lo + 1), OLt},
		{"N-2^63 vs N+2^63-1", AddConst(n, lo), AddConst(n, hi), OLt},
		{"N+2^63-1 vs N-2^63", AddConst(n, hi), AddConst(n, lo), OGt},
		{"N+2^63-1 vs N", AddConst(n, hi), n, OGt},
		{"N vs N-2^63", n, AddConst(n, lo), OGt},
		{"2N-2^63 vs 2N+2^62", AddConst(Mul(Const(2), n), lo), AddConst(Mul(Const(2), n), 1<<62), OLt},
		// One level of max: N+2^63-1 > N-2^63 proves max(N+2^63-1, M) > N-2^63.
		{"max(N+2^63-1,M) vs N-2^63", Max(AddConst(n, hi), m), AddConst(n, lo), OGt},
		{"N-2^63 vs max(N+2^63-1,M)", AddConst(n, lo), Max(AddConst(n, hi), m), OLt},
		{"min(N-2^63,M) vs N+2^63-1", Min(AddConst(n, lo), m), AddConst(n, hi), OLt},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("%s: Compare(%s, %s) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareInfinities(t *testing.T) {
	n := Sym("N")
	if got := Compare(NegInf(), n); got != OLt {
		t.Errorf("-inf vs N = %v", got)
	}
	if got := Compare(n, PosInf()); got != OLt {
		t.Errorf("N vs +inf = %v", got)
	}
	if got := Compare(NegInf(), PosInf()); got != OLt {
		t.Errorf("-inf vs +inf = %v", got)
	}
	if got := Compare(PosInf(), PosInf()); got != OEq {
		t.Errorf("+inf vs +inf = %v", got)
	}
}

func TestMinMaxSimplification(t *testing.T) {
	n := Sym("N")
	// min(N, N+1) == N
	if got := Min(n, AddConst(n, 1)); !Equal(got, n) {
		t.Errorf("min(N,N+1) = %s, want N", got)
	}
	// max(N, N+1) == N+1
	if got := Max(n, AddConst(n, 1)); !Equal(got, AddConst(n, 1)) {
		t.Errorf("max(N,N+1) = %s, want N+1", got)
	}
	// min with -inf
	if got := Min(n, NegInf()); !got.IsNegInf() {
		t.Errorf("min(N,-inf) = %s", got)
	}
	// min with +inf is identity
	if got := Min(n, PosInf()); !Equal(got, n) {
		t.Errorf("min(N,+inf) = %s", got)
	}
	// flattening + dedup: min(min(N,M), N) has two operands
	m := Sym("M")
	got := Min(Min(n, m), n)
	if !Equal(got, Min(n, m)) {
		t.Errorf("min(min(N,M),N) = %s, want min(M,N)", got)
	}
}

func TestMinMaxBoundReasoning(t *testing.T) {
	n := Sym("N")
	m := Sym("M")
	mn := Min(n, m)
	mx := Max(n, m)
	if got := Compare(mn, n); !got.ProvesLE() {
		t.Errorf("min(N,M) vs N = %v, want <=", got)
	}
	if got := Compare(mx, n); !got.ProvesGE() {
		t.Errorf("max(N,M) vs N = %v, want >=", got)
	}
	if got := Compare(n, mn); !got.ProvesGE() {
		t.Errorf("N vs min(N,M) = %v, want >=", got)
	}
	// min(N,M) ≤ max(N,M): provable since every min operand is ≤ some max operand.
	if got := Compare(mn, mx); got.ProvesGT() {
		t.Errorf("min vs max = %v: unsound", got)
	}
}

func TestMinMaxArityCap(t *testing.T) {
	// Overflowing the operand cap degrades to the conservative infinity.
	e := Sym("s0")
	for i := 1; i < 2*maxMinMaxArity; i++ {
		e = Min(e, Sym(sname(i)))
	}
	if !e.IsNegInf() {
		t.Errorf("oversized min should degrade to -inf, got %s", e)
	}
	e = Sym("s0")
	for i := 1; i < 2*maxMinMaxArity; i++ {
		e = Max(e, Sym(sname(i)))
	}
	if !e.IsPosInf() {
		t.Errorf("oversized max should degrade to +inf, got %s", e)
	}
}

func sname(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestEval(t *testing.T) {
	n := Sym("N")
	m := Sym("M")
	env := map[string]int64{"N": 7, "M": 3}
	cases := []struct {
		e    *Expr
		want int64
	}{
		{Add(n, m), 10},
		{Sub(n, m), 4},
		{Mul(n, m), 21},
		{Div(n, m), 2},
		{Mod(n, m), 1},
		{Min(n, m), 3},
		{Max(n, m), 7},
		{AddConst(Mul(Const(2), n), -1), 13},
	}
	for _, c := range cases {
		got, ok := c.e.Eval(env)
		if !ok || got != c.want {
			t.Errorf("%s = %d (ok=%v), want %d", c.e, got, ok, c.want)
		}
	}
	if _, ok := n.Eval(map[string]int64{}); ok {
		t.Errorf("eval with missing symbol should fail")
	}
	if _, ok := PosInf().Eval(env); ok {
		t.Errorf("eval of +inf should fail")
	}
}

// randExpr builds a random expression over symbols a,b,c with bounded depth.
func randExpr(r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(2) {
		case 0:
			return Const(int64(r.Intn(21) - 10))
		default:
			return Sym(string(rune('a' + r.Intn(3))))
		}
	}
	x := randExpr(r, depth-1)
	y := randExpr(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	case 2:
		return Mul(x, y)
	case 3:
		return Min(x, y)
	case 4:
		return Max(x, y)
	default:
		return Mod(x, y)
	}
}

// TestCompareSoundProperty: whenever Compare proves a relation, the relation
// holds under random valuations of the symbols.
func TestCompareSoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	checked := 0
	for i := 0; i < 3000; i++ {
		a := randExpr(r, 3)
		b := randExpr(r, 3)
		o := Compare(a, b)
		if o == OUnknown {
			continue
		}
		for trial := 0; trial < 20; trial++ {
			env := map[string]int64{
				"a": int64(r.Intn(41) - 20),
				"b": int64(r.Intn(41) - 20),
				"c": int64(r.Intn(41) - 20),
			}
			va, oka := a.Eval(env)
			vb, okb := b.Eval(env)
			if !oka || !okb {
				continue
			}
			checked++
			ok := true
			switch o {
			case OLt:
				ok = va < vb
			case OLe:
				ok = va <= vb
			case OEq:
				ok = va == vb
			case OGe:
				ok = va >= vb
			case OGt:
				ok = va > vb
			}
			if !ok {
				t.Fatalf("Compare(%s, %s)=%v but eval gives %d vs %d under %v",
					a, b, o, va, vb, env)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("property test never exercised a proven comparison")
	}
}

// TestEvalMatchesCanonicalization: canonicalized expressions evaluate the
// same as the naive recursive semantics (checked via Add/Sub identities).
func TestEvalMatchesCanonicalization(t *testing.T) {
	f := func(x, y, z int8) bool {
		env := map[string]int64{"a": int64(x), "b": int64(y), "c": int64(z)}
		a, b, c := Sym("a"), Sym("b"), Sym("c")
		e1 := Add(Add(a, b), c)
		e2 := Add(a, Add(b, c))
		v1, ok1 := e1.Eval(env)
		v2, ok2 := e2.Eval(env)
		if !ok1 || !ok2 || v1 != v2 {
			return false
		}
		e3 := Sub(Mul(Const(2), Add(a, b)), Add(a, b))
		v3, ok3 := e3.Eval(env)
		return ok3 && v3 == int64(x)+int64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringStability(t *testing.T) {
	n, m := Sym("N"), Sym("M")
	e := Add(AddConst(Mul(Const(2), n), 3), m)
	if got := e.String(); got != "M + 2*N + 3" {
		t.Errorf("String() = %q", got)
	}
	if got := Sub(Zero(), n).String(); got != "-N" {
		t.Errorf("String() = %q", got)
	}
	if got := Min(n, m).String(); got != "min(M, N)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSyms(t *testing.T) {
	n, m := Sym("N"), Sym("M")
	e := Add(Min(n, m), Const(3))
	got := e.Syms()
	if len(got) != 2 || got[0] != "M" || got[1] != "N" {
		t.Errorf("Syms = %v", got)
	}
	if !e.HasSym() {
		t.Errorf("HasSym should be true")
	}
	if Const(3).HasSym() {
		t.Errorf("const HasSym should be false")
	}
}
