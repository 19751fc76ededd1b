// Package interval implements the SymbRanges semi-lattice of §3.3 of
// "Symbolic Range Analysis of Pointers" (CGO'16): symbolic intervals
// R = [l, u] over the partially ordered set S = SE ∪ {−∞, +∞}, with
//
//	join   [a1,a2] ⊔ [b1,b2] = [min(a1,b1), max(a2,b2)]
//	meet   [a1,a2] ⊓ [b1,b2] = ∅ if a2<b1 or b2<a1, else [max(a1,b1), min(a2,b2)]
//	order  [l0,u0] ⊑ [l1,u1]  iff l1 ≤ l0 ∧ u1 ≥ u0
//
// plus the paper's widening operator ∇ and a narrowing used by the
// descending sequence. ∅ (Empty) is the least element and [−∞,+∞] (Full) the
// greatest.
//
// Because bounds are symbolic, several predicates come in a *proven* flavour:
// ProvablyDisjoint answers true only when the emptiness of the intersection
// holds for every valuation of the kernel symbols; incomparable bounds always
// degrade to "not proven", which client analyses translate to may-alias.
//
// aliaslint:interner-scoped — this package runs on per-module analysis
// paths: internal arithmetic derives its interner from operand bounds
// (Interval.owner), never from the process-wide Default; only the exported
// constant constructors Consts/ConstPoint pin the Default interner, for
// callers that have no expression in hand yet.
package interval

import (
	"fmt"

	"repro/internal/symbolic"
)

// Interval is a symbolic interval, or the empty interval. The zero value is
// the empty interval.
type Interval struct {
	lo, hi *symbolic.Expr
	full   bool // set on [−∞,+∞], lets Full() avoid allocation checks
}

// Empty returns ∅, the least element of SymbRanges.
func Empty() Interval { return Interval{} }

// Full returns [−∞,+∞], the greatest element.
func Full() Interval {
	return Interval{lo: symbolic.NegInf(), hi: symbolic.PosInf(), full: true}
}

// Of builds [lo, hi]. If lo > hi is provable the result is ∅.
func Of(lo, hi *symbolic.Expr) Interval {
	if lo == nil || hi == nil {
		panic("interval: nil bound")
	}
	if lo.IsPosInf() || hi.IsNegInf() {
		return Empty()
	}
	if symbolic.Compare(lo, hi).ProvesGT() {
		return Empty()
	}
	return Interval{lo: lo, hi: hi, full: lo.IsNegInf() && hi.IsPosInf()}
}

// Point returns [e, e].
func Point(e *symbolic.Expr) Interval { return Of(e, e) }

// Consts returns [lo, hi] with constant bounds in the Default interner.
// Callers holding a module-scoped expression should prefer ConstsIn (or
// derive bounds via an operand's Owner) so the interval stays inside that
// module's interner.
func Consts(lo, hi int64) Interval {
	return Of(symbolic.Const(lo), symbolic.Const(hi)) //nolint:internermix // entry-point constructor: callers without an Expr in hand have only the Default interner
}

// ConstsIn returns [lo, hi] with constant bounds interned in in.
func ConstsIn(in *symbolic.Interner, lo, hi int64) Interval {
	return Of(in.Const(lo), in.Const(hi))
}

// ConstPoint returns [c, c] in the Default interner (see Consts).
func ConstPoint(c int64) Interval { return Consts(c, c) }

// ownerOrNil derives the interner r's bounds live in: the first finite
// bound's owner, or nil when r is empty or fully infinite (infinities are
// interner-less singletons).
func (r Interval) ownerOrNil() *symbolic.Interner {
	if !r.IsEmpty() {
		if !r.lo.IsInf() {
			return r.lo.Owner()
		}
		if !r.hi.IsInf() {
			return r.hi.Owner()
		}
	}
	return nil
}

// owner is ownerOrNil defaulting to the Default interner — safe for fully
// infinite intervals, whose bounds combine with any interner's expressions.
func (r Interval) owner() *symbolic.Interner {
	if in := r.ownerOrNil(); in != nil {
		return in
	}
	return symbolic.Default()
}

// ownerOf2 derives the interner for a binary operation over a and b.
func ownerOf2(a, b Interval) *symbolic.Interner {
	if in := a.ownerOrNil(); in != nil {
		return in
	}
	return b.owner()
}

// IsEmpty reports whether r is ∅.
func (r Interval) IsEmpty() bool { return r.lo == nil }

// IsFull reports whether r is [−∞,+∞].
func (r Interval) IsFull() bool { return r.full }

// Lo returns the lower bound (R↓). Panics on ∅.
func (r Interval) Lo() *symbolic.Expr {
	if r.IsEmpty() {
		panic("interval: Lo of empty interval")
	}
	return r.lo
}

// Hi returns the upper bound (R↑). Panics on ∅.
func (r Interval) Hi() *symbolic.Expr {
	if r.IsEmpty() {
		panic("interval: Hi of empty interval")
	}
	return r.hi
}

// String renders r.
func (r Interval) String() string {
	if r.IsEmpty() {
		return "∅"
	}
	return fmt.Sprintf("[%s, %s]", r.lo, r.hi)
}

// Equal reports structural equality after canonicalization. Bounds are
// hash-consed (see internal/symbolic), so this is two pointer comparisons —
// the widening test of the fixpoint loops costs no traversal.
func Equal(a, b Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return a.IsEmpty() == b.IsEmpty()
	}
	return symbolic.Equal(a.lo, b.lo) && symbolic.Equal(a.hi, b.hi)
}

// Join is the lattice ⊔: [min(lo), max(hi)]. ∅ is neutral.
func Join(a, b Interval) Interval {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	if a.full || b.full {
		return Full()
	}
	return Of(symbolic.Min(a.lo, b.lo), symbolic.Max(a.hi, b.hi))
}

// Meet is the lattice ⊓ (exact intersection): provably disjoint operands
// yield ∅; otherwise [max(lo), min(hi)], which is exact even when the order
// of the bounds is not decidable.
func Meet(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if a.full {
		return b
	}
	if b.full {
		return a
	}
	if symbolic.Compare(a.hi, b.lo).ProvesLT() || symbolic.Compare(b.hi, a.lo).ProvesLT() {
		return Empty()
	}
	return Of(symbolic.Max(a.lo, b.lo), symbolic.Min(a.hi, b.hi))
}

// Leq reports whether a ⊑ b is *provable*: b.lo ≤ a.lo ∧ b.hi ≥ a.hi. With
// symbolic bounds this is a sound approximation of the order (false may mean
// "unknown").
func Leq(a, b Interval) bool {
	if a.IsEmpty() {
		return true
	}
	if b.IsEmpty() {
		return false
	}
	if b.full {
		return true
	}
	return symbolic.Compare(b.lo, a.lo).ProvesLE() &&
		symbolic.Compare(b.hi, a.hi).ProvesGE()
}

// ProvablyDisjoint reports whether a ∩ b = ∅ holds for every valuation of
// the kernel symbols. This is the test behind the no-alias answers of
// §3.5/§3.7; it must never return true spuriously.
func ProvablyDisjoint(a, b Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return true
	}
	return symbolic.Compare(a.hi, b.lo).ProvesLT() ||
		symbolic.Compare(b.hi, a.lo).ProvesLT()
}

// Contains reports whether the constant c provably lies in r.
func (r Interval) Contains(c int64) bool {
	if r.IsEmpty() {
		return false
	}
	e := r.owner().Const(c)
	return symbolic.Compare(r.lo, e).ProvesLE() &&
		symbolic.Compare(r.hi, e).ProvesGE()
}

// Widen is the paper's ∇ (§3.3): bounds that changed jump to the respective
// infinity, unchanged bounds are kept. "Changed" is decided by structural
// equality, which is what guarantees the 3-step termination argument of §3.8.
func Widen(old, next Interval) Interval {
	if old.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return old
	}
	lo := old.lo
	if !symbolic.Equal(old.lo, next.lo) {
		lo = symbolic.NegInf()
	}
	hi := old.hi
	if !symbolic.Equal(old.hi, next.hi) {
		hi = symbolic.PosInf()
	}
	return Of(lo, hi)
}

// Narrow implements one step of the descending sequence (§3.4, §3.9):
// infinite bounds of cur may be refined by next; finite bounds are kept.
// Starting from a post-fixpoint this is sound and terminates in bounded
// steps.
func Narrow(cur, next Interval) Interval {
	if cur.IsEmpty() || next.IsEmpty() {
		return cur
	}
	lo := cur.lo
	if lo.IsNegInf() {
		lo = next.lo
	}
	hi := cur.hi
	if hi.IsPosInf() {
		hi = next.hi
	}
	return Of(lo, hi)
}

// ---------------------------------------------------------------------------
// Interval arithmetic.

// Add returns {x+y | x∈a, y∈b}: [a.lo+b.lo, a.hi+b.hi], guarding the
// infinities so that opposite infinities never meet.
func Add(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo := symbolic.NegInf()
	if !a.lo.IsNegInf() && !b.lo.IsNegInf() {
		lo = symbolic.Add(a.lo, b.lo)
	}
	hi := symbolic.PosInf()
	if !a.hi.IsPosInf() && !b.hi.IsPosInf() {
		hi = symbolic.Add(a.hi, b.hi)
	}
	return Of(lo, hi)
}

// Sub returns {x−y | x∈a, y∈b}: [a.lo−b.hi, a.hi−b.lo].
func Sub(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo := symbolic.NegInf()
	if !a.lo.IsNegInf() && !b.hi.IsPosInf() {
		lo = symbolic.Sub(a.lo, b.hi)
	}
	hi := symbolic.PosInf()
	if !a.hi.IsPosInf() && !b.lo.IsNegInf() {
		hi = symbolic.Sub(a.hi, b.lo)
	}
	return Of(lo, hi)
}

// AddConst shifts r by c.
func (r Interval) AddConst(c int64) Interval {
	if r.IsEmpty() || c == 0 {
		return r
	}
	lo := r.lo
	if !lo.IsInf() {
		lo = symbolic.AddConst(lo, c)
	}
	hi := r.hi
	if !hi.IsInf() {
		hi = symbolic.AddConst(hi, c)
	}
	return Of(lo, hi)
}

// Neg returns {−x | x∈r}.
func (r Interval) Neg() Interval {
	if r.IsEmpty() {
		return r
	}
	return Of(symbolic.Neg(r.hi), symbolic.Neg(r.lo))
}

// MulConst scales r by the constant c.
func (r Interval) MulConst(c int64) Interval {
	if r.IsEmpty() {
		return r
	}
	if c == 0 {
		return Point(r.owner().Zero())
	}
	lo, hi := r.lo, r.hi
	if c < 0 {
		lo, hi = hi, lo
	}
	k := r.owner().Const(c)
	return Of(symbolic.Mul(lo, k), symbolic.Mul(hi, k))
}

// Mul returns a sound product of two intervals. Precise when either side is
// a known constant point; when both operands are non-negative it multiplies
// bound-wise; otherwise it degrades to [−∞,+∞].
func Mul(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if c, ok := constPoint(a); ok {
		return b.MulConst(c)
	}
	if c, ok := constPoint(b); ok {
		return a.MulConst(c)
	}
	if a.provablyNonNeg() && b.provablyNonNeg() {
		hi := symbolic.PosInf()
		if !a.hi.IsPosInf() && !b.hi.IsPosInf() {
			hi = symbolic.Mul(a.hi, b.hi)
		}
		return Of(symbolic.Mul(a.lo, b.lo), hi)
	}
	return Full()
}

// Div returns a sound quotient (C-style truncation). Constant points fold
// exactly; division by a positive constant point folds constant operand
// bounds (truncated division by a positive constant is monotone); everything
// else degrades to [−∞,+∞] (sufficient for the IR idioms the frontends
// emit).
func Div(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if x, ok := constPoint(a); ok {
		if y, ok := constPoint(b); ok && y != 0 {
			return Point(ownerOf2(a, b).Const(x / y))
		}
	}
	c, ok := constPoint(b)
	if !ok || c <= 0 {
		return Full()
	}
	alo, lok := constOf(a.lo)
	ahi, hok := constOf(a.hi)
	lo := symbolic.NegInf()
	hi := symbolic.PosInf()
	if lok {
		lo = a.owner().Const(alo / c)
	}
	if hok {
		hi = a.owner().Const(ahi / c)
	}
	return Of(lo, hi)
}

// Rem returns a sound remainder: for a positive constant divisor n the
// result is within [−(n−1), n−1], tightened to [0, n−1] when the dividend is
// provably non-negative.
func Rem(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if x, ok := constPoint(a); ok {
		if y, ok := constPoint(b); ok && y != 0 {
			return Point(ownerOf2(a, b).Const(x % y))
		}
	}
	n, ok := constPoint(b)
	if !ok || n <= 0 {
		return Full()
	}
	if a.provablyNonNeg() {
		return ConstsIn(ownerOf2(a, b), 0, n-1)
	}
	return ConstsIn(ownerOf2(a, b), -(n - 1), n-1)
}

func constPoint(r Interval) (int64, bool) {
	lo, ok := constOf(r.lo)
	if !ok {
		return 0, false
	}
	hi, ok := constOf(r.hi)
	if !ok || lo != hi {
		return 0, false
	}
	return lo, true
}

func constOf(e *symbolic.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	return e.ConstValue()
}

func (r Interval) provablyNonNeg() bool {
	return symbolic.Compare(r.lo, r.owner().Zero()).ProvesGE()
}

// ---------------------------------------------------------------------------
// Expression-size budget (§3.8: O(1) information per variable).

// DefaultBudget bounds the node count of each interval bound; oversized
// bounds degrade to the matching infinity, preserving soundness.
const DefaultBudget = 48

// Clamp enforces the expression-size budget on r's bounds.
func (r Interval) Clamp(budget int) Interval {
	if r.IsEmpty() {
		return r
	}
	lo, hi := r.lo, r.hi
	if !lo.IsInf() && lo.Size() > budget {
		lo = symbolic.NegInf()
	}
	if !hi.IsInf() && hi.Size() > budget {
		hi = symbolic.PosInf()
	}
	if lo == r.lo && hi == r.hi {
		return r
	}
	return Of(lo, hi)
}
