// Package symbolic implements the symbolic expression language used by the
// range analysis of §3.3 of "Symbolic Range Analysis of Pointers" (CGO'16):
//
//	E ::= n | s | min(E,E) | max(E,E) | E−E | E+E | E/E | E mod E | E×E
//
// augmented with the two infinities −∞ and +∞ that close the SymbRanges
// lattice. Expressions are immutable and hash-consed: constructors simplify
// eagerly, keep sums in a canonical linear form (a constant plus a sorted sum
// of coefficient×atom terms, where an atom is either a kernel symbol or an
// opaque non-linear subexpression), and intern every node, so structurally
// equal expressions built in one interner are pointer-equal. Structural
// equality and the partial-order comparison of §3.3 are therefore cheap —
// Equal is a pointer comparison and Compare compares two term lists
// in place, with no scratch and no per-call string keys.
//
// The symbolic kernel of a program — names that cannot be expressed as a
// function of other names, e.g. function parameters and results of library
// calls — appears here as Sym values.
package symbolic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the expression node forms.
type Kind uint8

// Expression node kinds.
const (
	KConst  Kind = iota // integer literal
	KSym                // kernel symbol
	KSum                // canonical linear sum: k + Σ coeff·atom
	KMin                // n-ary minimum
	KMax                // n-ary maximum
	KMul                // non-linear product
	KDiv                // quotient
	KMod                // remainder
	KNegInf             // −∞
	KPosInf             // +∞
)

// Expr is an immutable, interned symbolic expression. The zero value is not
// valid; use the package constructors (Default interner) or an Interner's
// methods. Within one interner, structural equality is pointer equality.
//
// aliaslint:frozen — nodes are immutable once interned; only the interner
// (Interner.intern, at construction) writes fields.
type Expr struct {
	kind   Kind
	hasSym bool
	size   int32   // node count, computed at intern time
	k      int64   // KConst value; KSum constant part
	sym    string  // KSym name
	args   []*Expr // KMin/KMax operands; KMul/KDiv/KMod operands (2)
	// terms holds the linear part of a KSum, sorted by cmpExpr on the atom.
	terms []Term
	hash  uint64    // structural hash, fixed at intern time
	in    *Interner // owning interner; nil only for the infinity singletons
	// key caches the canonical debug string; computed lazily by Key/String,
	// never consulted on the analysis hot path.
	key atomic.Pointer[string]
	// syms caches the sorted distinct kernel symbols (lazily, once).
	syms atomic.Pointer[[]string]
}

// Term is one coeff·atom component of a canonical sum. Atom is either a
// symbol or an opaque (non-linear) subexpression.
type Term struct {
	Coeff int64
	Atom  *Expr
}

var (
	negInf = &Expr{kind: KNegInf, size: 1}
	posInf = &Expr{kind: KPosInf, size: 1}
)

func init() {
	// Distinct fixed hashes so the infinities can appear as children of
	// opaque nodes (Div involving ±∞ degrades to an opaque node).
	negInf.hash = hashNode(KNegInf, 0, "", nil, nil)
	posInf.hash = hashNode(KPosInf, 0, "", nil, nil)
}

// NegInf returns the −∞ expression.
func NegInf() *Expr { return negInf }

// PosInf returns the +∞ expression.
func PosInf() *Expr { return posInf }

// Zero returns the constant 0 (Default interner).
//
// aliaslint:default-interner
func Zero() *Expr { return defaultInterner.Zero() }

// One returns the constant 1 (Default interner).
//
// aliaslint:default-interner
func One() *Expr { return defaultInterner.One() }

// Const returns the integer constant c (Default interner).
//
// aliaslint:default-interner
func Const(c int64) *Expr { return defaultInterner.Const(c) }

// Sym returns the kernel symbol named s (Default interner).
//
// aliaslint:default-interner
func Sym(s string) *Expr { return defaultInterner.Sym(s) }

// Owner returns the interner that owns e. The infinity singletons belong to
// no interner and report the Default interner, which any interner's
// expressions may combine with. Owner is how interner-scoped code derives
// the right interner from an operand instead of reaching for the
// process-wide Default: `e.Owner().Const(c)` stays inside whatever interner
// produced e.
func (e *Expr) Owner() *Interner {
	if e.in == nil {
		return defaultInterner
	}
	return e.in
}

// Kind reports the node kind of e.
func (e *Expr) Kind() Kind { return e.kind }

// ConstValue reports the value of a constant expression.
func (e *Expr) ConstValue() (int64, bool) {
	if e.kind == KConst {
		return e.k, true
	}
	return 0, false
}

// SymName reports the name of a symbol expression.
func (e *Expr) SymName() (string, bool) {
	if e.kind == KSym {
		return e.sym, true
	}
	return "", false
}

// IsNegInf reports whether e is −∞.
func (e *Expr) IsNegInf() bool { return e.kind == KNegInf }

// IsPosInf reports whether e is +∞.
func (e *Expr) IsPosInf() bool { return e.kind == KPosInf }

// IsInf reports whether e is −∞ or +∞.
func (e *Expr) IsInf() bool { return e.kind == KNegInf || e.kind == KPosInf }

// IsConst reports whether e is an integer literal.
func (e *Expr) IsConst() bool { return e.kind == KConst }

// Size counts the nodes of e; the analyses use it to bound expression growth
// (§3.8 argues information per variable is O(1)). Sizes are computed once at
// intern time, so this is a field read.
func (e *Expr) Size() int { return int(e.size) }

// SplitConst decomposes a finite expression into e = shape + k, where shape
// carries no additive constant: a literal splits to (nil, value), a sum
// splits off its constant part (the remainder is interned, so equal shapes
// are pointer-equal), and every other node is its own shape with k = 0.
// Two expressions with the same shape differ by exactly k₁ − k₂ under every
// valuation — the decomposition behind the compiled alias index's bound
// digests, which Compare's same-term-list rule orders by the constants.
// Infinities split to themselves (they have no shape arithmetic).
func (e *Expr) SplitConst() (shape *Expr, k int64) {
	switch e.kind {
	case KConst:
		return nil, e.k
	case KSum:
		if e.k != 0 {
			return AddConst(e, -e.k), e.k
		}
		return e, 0
	default:
		return e, 0
	}
}

// Args returns the operands of a min, max, product, quotient or remainder
// node (nil for every other kind), in canonical order. The slice is the
// node's own: treat it as read-only.
func (e *Expr) Args() []*Expr { return e.args }

// Syms returns the distinct kernel symbols of e in canonical order. The
// slice is computed once per interned node and shared by every caller: treat
// it as read-only.
func (e *Expr) Syms() []string {
	if !e.hasSym {
		return nil
	}
	if p := e.syms.Load(); p != nil {
		return *p
	}
	set := map[string]bool{}
	e.collectSyms(set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	e.syms.Store(&out)
	return out
}

func (e *Expr) collectSyms(set map[string]bool) {
	switch e.kind {
	case KSym:
		set[e.sym] = true
	case KSum:
		for _, t := range e.terms {
			t.Atom.collectSyms(set)
		}
	default:
		for _, a := range e.args {
			a.collectSyms(set)
		}
	}
}

// HasSym reports whether e mentions any kernel symbol (i.e. is not a pure
// numeric expression). Infinities count as numeric. Computed at intern time.
func (e *Expr) HasSym() bool { return e.hasSym }

// Key returns a canonical string identity for e: two expressions with equal
// keys are structurally (and therefore semantically) equal after the
// constructor normalization, even across interners. The string is computed
// lazily and cached — it exists for debugging and serialization; equality
// within one interner is the pointer comparison Equal.
func (e *Expr) Key() string {
	if p := e.key.Load(); p != nil {
		return *p
	}
	s := e.computeKey()
	e.key.Store(&s)
	return s
}

func (e *Expr) computeKey() string {
	switch e.kind {
	case KConst:
		return strconv.FormatInt(e.k, 10)
	case KSym:
		return e.sym
	case KNegInf:
		return "-inf"
	case KPosInf:
		return "+inf"
	case KSum:
		var b strings.Builder
		b.WriteString("sum{")
		b.WriteString(strconv.FormatInt(e.k, 10))
		for _, t := range e.terms {
			b.WriteByte(';')
			b.WriteString(strconv.FormatInt(t.Coeff, 10))
			b.WriteByte('*')
			b.WriteString(t.Atom.Key())
		}
		b.WriteString("}")
		return b.String()
	}
	var tag string
	switch e.kind {
	case KMin:
		tag = "min"
	case KMax:
		tag = "max"
	case KMul:
		tag = "mul"
	case KDiv:
		tag = "div"
	case KMod:
		tag = "mod"
	default:
		tag = "?"
	}
	var b strings.Builder
	b.WriteString(tag)
	b.WriteByte('{')
	for i, a := range e.args {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(a.Key())
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether a and b are equal after canonicalization. Interned
// expressions are canonical, so this is pointer equality; expressions from
// *different* interners never compare equal (the analyses share the Default
// interner, so they never mix).
func Equal(a, b *Expr) bool { return a == b }

// String renders e in a stable human-readable form.
func (e *Expr) String() string {
	switch e.kind {
	case KConst:
		return strconv.FormatInt(e.k, 10)
	case KSym:
		return e.sym
	case KNegInf:
		return "-inf"
	case KPosInf:
		return "+inf"
	case KSum:
		var b strings.Builder
		first := true
		for _, t := range e.terms {
			at := t.Atom.String()
			if t.Atom.kind != KSym && t.Atom.kind != KConst {
				at = "(" + at + ")"
			}
			switch {
			case first && t.Coeff == 1:
				b.WriteString(at)
			case first && t.Coeff == -1:
				b.WriteString("-" + at)
			case first:
				fmt.Fprintf(&b, "%d*%s", t.Coeff, at)
			case t.Coeff == 1:
				b.WriteString(" + " + at)
			case t.Coeff == -1:
				b.WriteString(" - " + at)
			case t.Coeff < 0:
				fmt.Fprintf(&b, " - %d*%s", -t.Coeff, at)
			default:
				fmt.Fprintf(&b, " + %d*%s", t.Coeff, at)
			}
			first = false
		}
		switch {
		case first:
			fmt.Fprint(&b, e.k)
		case e.k > 0:
			fmt.Fprintf(&b, " + %d", e.k)
		case e.k < 0:
			fmt.Fprintf(&b, " - %d", -e.k)
		}
		return b.String()
	case KMin, KMax:
		name := "min"
		if e.kind == KMax {
			name = "max"
		}
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = a.String()
		}
		return name + "(" + strings.Join(parts, ", ") + ")"
	case KMul:
		return "(" + e.args[0].String() + ")*(" + e.args[1].String() + ")"
	case KDiv:
		return "(" + e.args[0].String() + ")/(" + e.args[1].String() + ")"
	case KMod:
		return "(" + e.args[0].String() + ") mod (" + e.args[1].String() + ")"
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Linear canonical form.

// linform is scratch space for the canonical linear view of an expression:
// k + Σ coeff·atom with terms sorted by cmpExpr on the atom. Instances come
// from a sync.Pool and never escape a constructor call; the interner copies
// the term slice only when a new node is actually created.
type linform struct {
	k     int64
	terms []Term
}

var linPool = sync.Pool{New: func() any { return new(linform) }}

func getLin() *linform {
	l := linPool.Get().(*linform)
	l.k = 0
	l.terms = l.terms[:0]
	return l
}

func putLin(l *linform) {
	if cap(l.terms) > 256 {
		l.terms = nil // don't let one huge expression pin scratch forever
	}
	linPool.Put(l)
}

// add folds coeff·atom into the sorted term list.
func (l *linform) add(coeff int64, atom *Expr) {
	if coeff == 0 {
		return
	}
	i := sort.Search(len(l.terms), func(i int) bool { return cmpExpr(l.terms[i].Atom, atom) >= 0 })
	if i < len(l.terms) && l.terms[i].Atom == atom {
		l.terms[i].Coeff += coeff
		if l.terms[i].Coeff == 0 {
			l.terms = append(l.terms[:i], l.terms[i+1:]...)
		}
		return
	}
	l.terms = append(l.terms, Term{})
	copy(l.terms[i+1:], l.terms[i:])
	l.terms[i] = Term{Coeff: coeff, Atom: atom}
}

// absorb folds scale·e into the form. e must be finite; non-linear subtrees
// become single atoms, and a KSum's terms merge pairwise (both sides sorted).
func (l *linform) absorb(scale int64, e *Expr) {
	switch e.kind {
	case KConst:
		l.k += scale * e.k
	case KSum:
		l.k += scale * e.k
		for _, t := range e.terms {
			l.add(scale*t.Coeff, t.Atom)
		}
	default:
		l.add(scale, e)
	}
}

// build interns the canonical expression for the form.
func (l *linform) build(in *Interner) *Expr {
	if len(l.terms) == 0 {
		return in.Const(l.k)
	}
	// A sum of exactly one unit-coefficient atom with no constant is the
	// atom itself.
	if l.k == 0 && len(l.terms) == 1 && l.terms[0].Coeff == 1 {
		return l.terms[0].Atom
	}
	return in.intern(KSum, l.k, "", nil, l.terms)
}

// Terms exposes the canonical decomposition of e as constant + terms, in
// canonical order. Every finite expression decomposes; infinities report
// ok=false. The returned slice is fresh and the caller may keep it.
func (e *Expr) Terms() (k int64, terms []Term, ok bool) {
	switch e.kind {
	case KNegInf, KPosInf:
		return 0, nil, false
	case KConst:
		return e.k, nil, true
	case KSum:
		return e.k, append([]Term(nil), e.terms...), true
	default:
		return 0, []Term{{Coeff: 1, Atom: e}}, true
	}
}

// ---------------------------------------------------------------------------
// Arithmetic constructors.

// Add returns a+b. Mixing opposite infinities is a caller bug: the interval
// layer guards bound arithmetic so that −∞ and +∞ never meet; Add panics if
// they do.
func Add(a, b *Expr) *Expr { return addScaled(a, b, 1) }

// Sub returns a−b, with the same infinity discipline as Add.
func Sub(a, b *Expr) *Expr { return addScaled(a, b, -1) }

func addScaled(a, b *Expr, sb int64) *Expr {
	if a.IsInf() || b.IsInf() {
		if sb < 0 {
			return addInf(a, Neg(b))
		}
		return addInf(a, b)
	}
	in := owner2(a, b)
	l := getLin()
	l.absorb(1, a)
	l.absorb(sb, b)
	e := l.build(in)
	putLin(l)
	return e
}

func addInf(a, b *Expr) *Expr {
	switch {
	case a.IsNegInf() && b.IsPosInf(), a.IsPosInf() && b.IsNegInf():
		panic("symbolic: +inf + -inf")
	case a.IsNegInf() || b.IsNegInf():
		return negInf
	default:
		return posInf
	}
}

// Neg returns −a.
func Neg(a *Expr) *Expr {
	switch a.kind {
	case KNegInf:
		return posInf
	case KPosInf:
		return negInf
	}
	return scale(a, -1)
}

// AddConst returns a+c.
func AddConst(a *Expr, c int64) *Expr {
	if c == 0 || a.IsInf() {
		return a
	}
	in := owner1(a)
	if a.kind == KConst {
		return in.Const(a.k + c)
	}
	l := getLin()
	l.absorb(1, a)
	l.k += c
	e := l.build(in)
	putLin(l)
	return e
}

// Mul returns a×b. Products simplify when either side is constant; a
// non-constant product is kept as an opaque node, canonically ordered.
func Mul(a, b *Expr) *Expr {
	if a.IsInf() || b.IsInf() {
		return mulInf(a, b)
	}
	if c, ok := a.ConstValue(); ok {
		return scale(b, c)
	}
	if c, ok := b.ConstValue(); ok {
		return scale(a, c)
	}
	in := owner2(a, b)
	// Canonical operand order for the opaque product.
	if cmpExpr(a, b) > 0 {
		a, b = b, a
	}
	return in.intern2(KMul, a, b)
}

// mulInf multiplies with at least one infinite operand. The sign of the
// finite side must be a known constant; an unknown-sign operand panics
// (interval code checks signs before scaling infinite bounds).
func mulInf(a, b *Expr) *Expr {
	if b.IsInf() && !a.IsInf() {
		a, b = b, a
	}
	// a is infinite.
	if b.IsInf() {
		if a.kind == b.kind {
			return posInf
		}
		return negInf
	}
	c, ok := b.ConstValue()
	if !ok {
		panic("symbolic: inf * non-constant")
	}
	switch {
	case c == 0:
		return owner1(b).Zero()
	case c > 0:
		return a
	case a.IsNegInf():
		return posInf
	default:
		return negInf
	}
}

func scale(a *Expr, c int64) *Expr {
	in := owner1(a)
	switch c {
	case 0:
		return in.Zero()
	case 1:
		return a
	}
	l := getLin()
	l.absorb(c, a)
	e := l.build(in)
	putLin(l)
	return e
}

// Div returns a/b (C-style truncated quotient in the concrete semantics).
// Constant folding applies when both operands are constants and b≠0.
func Div(a, b *Expr) *Expr {
	ca, aok := a.ConstValue()
	cb, bok := b.ConstValue()
	if aok && bok && cb != 0 {
		return owner2(a, b).Const(ca / cb)
	}
	if bok && cb == 1 {
		return a
	}
	// Division involving infinities is never produced by the analyses;
	// degrade to an opaque node that compares as unknown.
	return owner2(a, b).intern2(KDiv, a, b)
}

// Mod returns a mod b, folding constants (b≠0).
func Mod(a, b *Expr) *Expr {
	ca, aok := a.ConstValue()
	cb, bok := b.ConstValue()
	if aok && bok && cb != 0 {
		return owner2(a, b).Const(ca % cb)
	}
	return owner2(a, b).intern2(KMod, a, b)
}

// maxMinMaxArity caps min/max operand lists: join chains produced by the
// fixpoint otherwise grow without bound. Overflowing lists are still exact
// (the constructors drop provably redundant operands first); the interval
// layer applies the lossy ±∞ degradation using Expr.Size.
const maxMinMaxArity = 8

// Min returns min(a,b), flattening nested minima, deduplicating and dropping
// operands that are provably dominated.
func Min(a, b *Expr) *Expr { return minMax(KMin, a, b) }

// Max returns max(a,b), symmetric to Min.
func Max(a, b *Expr) *Expr { return minMax(KMax, a, b) }

func minMax(kind Kind, a, b *Expr) *Expr {
	// Infinity short-circuits.
	if kind == KMin {
		if a.IsNegInf() || b.IsNegInf() {
			return negInf
		}
		if a.IsPosInf() {
			return b
		}
		if b.IsPosInf() {
			return a
		}
	} else {
		if a.IsPosInf() || b.IsPosInf() {
			return posInf
		}
		if a.IsNegInf() {
			return b
		}
		if b.IsNegInf() {
			return a
		}
	}
	in := owner2(a, b)
	// Gather operands, flattening same-kind children.
	var ops [2 * maxMinMaxArity]*Expr
	n := 0
	for _, x := range [2]*Expr{a, b} {
		if x.kind == kind {
			n += copy(ops[n:], x.args)
		} else {
			ops[n] = x
			n++
		}
	}
	// Deduplicate and drop dominated operands.
	kept := ops[:0]
	for _, x := range ops[:n] {
		drop := false
		for i := 0; i < len(kept); i++ {
			switch Compare(kept[i], x) {
			case OEq:
				drop = true
			case OLt, OLe:
				if kind == KMin {
					drop = true // kept[i] ≤ x: x redundant in min
				} else {
					kept = append(kept[:i], kept[i+1:]...) // x ≥ kept[i]
					i--
				}
			case OGt, OGe:
				if kind == KMax {
					drop = true
				} else {
					kept = append(kept[:i], kept[i+1:]...)
					i--
				}
			}
			if drop {
				break
			}
		}
		if !drop {
			kept = append(kept, x)
		}
	}
	if len(kept) == 1 {
		return kept[0]
	}
	// Insertion sort: operand lists are ≤ 2·maxMinMaxArity and a closure-free
	// sort keeps the scratch array off the heap.
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && cmpExpr(kept[j-1], kept[j]) > 0; j-- {
			kept[j-1], kept[j] = kept[j], kept[j-1]
		}
	}
	if len(kept) > maxMinMaxArity {
		// Dropping operands from a min could raise its value (and dually for
		// max), so an over-wide list degrades to the conservative infinity.
		if kind == KMin {
			return negInf
		}
		return posInf
	}
	return in.intern(kind, 0, "", kept, nil)
}

// MinN folds Min over a non-empty operand list.
func MinN(xs ...*Expr) *Expr {
	r := xs[0]
	for _, x := range xs[1:] {
		r = Min(r, x)
	}
	return r
}

// MaxN folds Max over a non-empty operand list.
func MaxN(xs ...*Expr) *Expr {
	r := xs[0]
	for _, x := range xs[1:] {
		r = Max(r, x)
	}
	return r
}
