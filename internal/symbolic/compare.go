package symbolic

import "slices"

// Order is the outcome of comparing two symbolic expressions under the
// partial order of §3.3: −∞ < … < −1 < 0 < 1 < … < +∞, with no ordering
// between distinct kernel symbols (N and N+1 compare, N and M do not).
type Order uint8

// Comparison outcomes. OLe/OGe arise from min/max reasoning where strictness
// is unknown.
const (
	OUnknown Order = iota
	OLt
	OLe
	OEq
	OGe
	OGt
)

// String renders the order relation.
func (o Order) String() string {
	switch o {
	case OLt:
		return "<"
	case OLe:
		return "<="
	case OEq:
		return "=="
	case OGe:
		return ">="
	case OGt:
		return ">"
	}
	return "?"
}

// Flip mirrors the relation (the order of a,b swapped).
func (o Order) Flip() Order {
	switch o {
	case OLt:
		return OGt
	case OLe:
		return OGe
	case OGe:
		return OLe
	case OGt:
		return OLt
	}
	return o
}

// ProvesLE reports whether the outcome proves a ≤ b.
func (o Order) ProvesLE() bool { return o == OLt || o == OLe || o == OEq }

// ProvesLT reports whether the outcome proves a < b.
func (o Order) ProvesLT() bool { return o == OLt }

// ProvesGE reports whether the outcome proves a ≥ b.
func (o Order) ProvesGE() bool { return o == OGt || o == OGe || o == OEq }

// ProvesGT reports whether the outcome proves a > b.
func (o Order) ProvesGT() bool { return o == OGt }

// Compare decides the relation between a and b where possible. The result is
// sound: any answer other than OUnknown holds for every valuation of the
// kernel symbols. The main decision procedure asks whether b − a is a
// constant; min/max structure is consulted for one-sided bounds.
func Compare(a, b *Expr) Order {
	if Equal(a, b) {
		return OEq
	}
	// Infinities.
	switch {
	case a.IsNegInf() && b.IsNegInf(), a.IsPosInf() && b.IsPosInf():
		return OEq
	case a.IsNegInf() || b.IsPosInf():
		return OLt
	case a.IsPosInf() || b.IsNegInf():
		return OGt
	}
	// b − a is a constant: the constants decide.
	if o := diffSign(a, b); o != OUnknown {
		return o
	}
	// One-sided min/max reasoning: min(xs) ≤ each x; max(xs) ≥ each x.
	if o := minMaxBound(a, b); o != OUnknown {
		return o
	}
	if o := minMaxBound(b, a).Flip(); o != OUnknown {
		return o
	}
	return OUnknown
}

// diffSign decides the order of two finite expressions whose difference
// b − a is a constant, which holds exactly when their canonical term lists
// are equal (same atoms, same coefficients). The constants are compared
// directly rather than subtracted, so the answer stays sound when b.k − a.k
// would overflow int64.
func diffSign(a, b *Expr) Order {
	if !sameTerms(a, b) {
		return OUnknown
	}
	switch ka, kb := a.constPart(), b.constPart(); {
	case ka < kb:
		return OLt
	case ka > kb:
		return OGt
	}
	return OEq
}

// sameTerms reports whether two finite expressions have the same canonical
// term list: a constant has none, a sum its terms, and every other node is
// the single term 1·itself.
func sameTerms(a, b *Expr) bool {
	switch {
	case a.kind == KConst || b.kind == KConst:
		return a.kind == b.kind
	case a.kind == KSum && b.kind == KSum:
		return slices.Equal(a.terms, b.terms)
	case a.kind == KSum:
		return len(a.terms) == 1 && a.terms[0] == Term{Coeff: 1, Atom: b}
	case b.kind == KSum:
		return len(b.terms) == 1 && b.terms[0] == Term{Coeff: 1, Atom: a}
	}
	return a == b
}

// constPart is the additive constant of a finite expression: its value for
// a literal, the constant of a sum, 0 for every other node.
func (e *Expr) constPart() int64 {
	if e.kind == KConst || e.kind == KSum {
		return e.k
	}
	return 0
}

// minMaxBound proves an order between a and b using the min/max structure
// of a, preserving strictness where possible: min(xs) ≤ every x (so some
// x < b proves min < b), and dually for max.
func minMaxBound(a, b *Expr) Order {
	switch a.kind {
	case KMin:
		// a = min(xs): some x < b ⇒ a < b; some x ≤ b ⇒ a ≤ b;
		// all x > b ⇒ a > b; all x ≥ b ⇒ a ≥ b.
		best := OUnknown
		allGE, allGT := true, true
		for _, x := range a.args {
			o := compareShallow(x, b)
			if o.ProvesLT() {
				return OLt
			}
			if o.ProvesLE() {
				best = OLe
			}
			if !o.ProvesGE() {
				allGE = false
			}
			if !o.ProvesGT() {
				allGT = false
			}
		}
		if best != OUnknown {
			return best
		}
		if allGT {
			return OGt
		}
		if allGE {
			return OGe
		}
	case KMax:
		best := OUnknown
		allLE, allLT := true, true
		for _, x := range a.args {
			o := compareShallow(x, b)
			if o.ProvesGT() {
				return OGt
			}
			if o.ProvesGE() {
				best = OGe
			}
			if !o.ProvesLE() {
				allLE = false
			}
			if !o.ProvesLT() {
				allLT = false
			}
		}
		if best != OUnknown {
			return best
		}
		if allLT {
			return OLt
		}
		if allLE {
			return OLe
		}
	}
	return OUnknown
}

// compareShallow is Compare without recursive min/max expansion, used to keep
// minMaxBound linear in the operand count.
func compareShallow(a, b *Expr) Order {
	if Equal(a, b) {
		return OEq
	}
	switch {
	case a.IsNegInf() && b.IsNegInf(), a.IsPosInf() && b.IsPosInf():
		return OEq
	case a.IsNegInf() || b.IsPosInf():
		return OLt
	case a.IsPosInf() || b.IsNegInf():
		return OGt
	}
	return diffSign(a, b)
}

// Eval evaluates e under a valuation of kernel symbols. It reports ok=false
// for infinities, missing symbols, or division/modulo by zero. Quotients
// truncate toward zero, matching the concrete integer semantics used by the
// tests' reference interpreter.
func (e *Expr) Eval(env map[string]int64) (int64, bool) {
	switch e.kind {
	case KConst:
		return e.k, true
	case KSym:
		v, ok := env[e.sym]
		return v, ok
	case KNegInf, KPosInf:
		return 0, false
	case KSum:
		total := e.k
		for _, t := range e.terms {
			v, ok := t.Atom.Eval(env)
			if !ok {
				return 0, false
			}
			total += t.Coeff * v
		}
		return total, true
	case KMin, KMax:
		best, ok := e.args[0].Eval(env)
		if !ok {
			return 0, false
		}
		for _, a := range e.args[1:] {
			v, ok := a.Eval(env)
			if !ok {
				return 0, false
			}
			if (e.kind == KMin && v < best) || (e.kind == KMax && v > best) {
				best = v
			}
		}
		return best, true
	case KMul:
		x, ok := e.args[0].Eval(env)
		if !ok {
			return 0, false
		}
		y, ok := e.args[1].Eval(env)
		if !ok {
			return 0, false
		}
		return x * y, true
	case KDiv:
		x, ok := e.args[0].Eval(env)
		if !ok {
			return 0, false
		}
		y, ok := e.args[1].Eval(env)
		if !ok || y == 0 {
			return 0, false
		}
		return x / y, true
	case KMod:
		x, ok := e.args[0].Eval(env)
		if !ok {
			return 0, false
		}
		y, ok := e.args[1].Eval(env)
		if !ok || y == 0 {
			return 0, false
		}
		return x % y, true
	}
	return 0, false
}
