package alias

// Compiled symbolic bounds. rbaa's GR bounds and LR offsets are symbolic
// expressions; the index keeps each one as a digest instead: a shape id
// and a constant, the bound being shape + K. Shape ids are dense per
// function and equal exactly when two bounds have the same canonical term
// list, which is when symbolic.Compare finds their difference constant.
// So the paper's symbolic-difference ordering (§3.3) becomes one integer
// compare, and the rest of Compare, infinities and one level of min/max,
// reads the digests of a min's or max's arguments from a flat side array.

// Bound is the digest of one symbolic bound: Shape names its non-constant
// part, K its additive constant. A pure constant has shape ShapeConst, and
// the infinities have their reserved shapes with K = 0.
type Bound struct {
	Shape int32
	K     int64
}

// Reserved shape ids. Every other shape id of a function is positive and
// indexes its RangeColumn's shape table.
const (
	ShapeNegInf int32 = -2 // −∞
	ShapePosInf int32 = -1 // +∞
	ShapeConst  int32 = 0  // no symbolic part: the bound is K
)

// Order is the outcome of comparing two bounds. Its values and their
// meaning are symbolic.Order's, so a compiled comparison can be checked
// against the prover as a whole Order.
type Order uint8

// Comparison outcomes, numbered as in symbolic.
const (
	OUnknown Order = iota
	OLt
	OLe
	OEq
	OGe
	OGt
)

// String renders the order relation as symbolic.Order does.
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

// flip mirrors the relation (the order of a,b swapped).
func (o Order) flip() Order {
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

func (o Order) provesLE() bool { return o == OLt || o == OLe || o == OEq }
func (o Order) provesGE() bool { return o == OGt || o == OGe || o == OEq }

// Compare is symbolic.Compare over two digests of one column, decided in
// the same order and returning the same Order: equal digests, then the
// infinities, then a shared shape (the constants decide), then one level of
// min/max on each side.
func (c *RangeColumn) Compare(a, b Bound) Order {
	o := compareShallow(a, b)
	if o != OUnknown || len(c.Args) == 0 {
		return o // decided, or no bound of the function is a min or a max
	}
	if c.minMax(a) {
		if o = c.minMaxBound(a, b); o != OUnknown {
			return o
		}
	}
	if c.minMax(b) {
		return c.minMaxBound(b, a).flip()
	}
	return OUnknown
}

// lt reports whether Compare proves a < b. Two bounds of one shape, the
// common case, never leave the inlined comparison of their constants.
func (c *RangeColumn) lt(a, b Bound) bool {
	if a.Shape == b.Shape {
		return a.K < b.K
	}
	return c.Compare(a, b) == OLt
}

// minMax reports whether a is a min or a max itself, with no constant
// added: the only bounds whose arguments Compare's min/max rule reads.
// The shape table must be present.
func (c *RangeColumn) minMax(a Bound) bool {
	return a.K == 0 && a.Shape > ShapeConst && c.ArgStart[a.Shape] != c.ArgStart[a.Shape+1]
}

// compareShallow is Compare without the min/max rule: equal shapes order
// by their constants (compared, never subtracted, so no overflow), and an
// infinity orders against anything of another shape.
func compareShallow(a, b Bound) Order {
	if a.Shape == b.Shape {
		switch {
		case a.K < b.K:
			return OLt
		case a.K > b.K:
			return OGt
		}
		return OEq
	}
	switch {
	case a.Shape == ShapeNegInf || b.Shape == ShapePosInf:
		return OLt
	case a.Shape == ShapePosInf || b.Shape == ShapeNegInf:
		return OGt
	}
	return OUnknown
}

// minMaxBound proves an order between a and b when a is a min or a max
// (minMax(a)), from its arguments' shallow orders against b: min(xs) ≤
// every x, so some x < b proves min < b, and dually for max.
func (c *RangeColumn) minMaxBound(a, b Bound) Order {
	args := c.Args[c.ArgStart[a.Shape]:c.ArgStart[a.Shape+1]]
	best := OUnknown
	if !c.IsMax[a.Shape] {
		// a = min(xs): some x < b ⇒ a < b; some x ≤ b ⇒ a ≤ b;
		// all x > b ⇒ a > b; all x ≥ b ⇒ a ≥ b.
		allGE, allGT := true, true
		for _, x := range args {
			o := compareShallow(x, b)
			if o == OLt {
				return OLt
			}
			if o.provesLE() {
				best = OLe
			}
			allGE = allGE && o.provesGE()
			allGT = allGT && o == OGt
		}
		switch {
		case best != OUnknown:
			return best
		case allGT:
			return OGt
		case allGE:
			return OGe
		}
		return OUnknown
	}
	allLE, allLT := true, true
	for _, x := range args {
		o := compareShallow(x, b)
		if o == OGt {
			return OGt
		}
		if o.provesGE() {
			best = OGe
		}
		allLE = allLE && o.provesLE()
		allLT = allLT && o == OLt
	}
	switch {
	case best != OUnknown:
		return best
	case allLT:
		return OLt
	case allLE:
		return OLe
	}
	return OUnknown
}
