// Package rbaa adapts the paper's pointer analysis (package pointer) to the
// alias.Analysis interface used by the evaluation harness, and exposes the
// per-test attribution needed for Fig. 14.
package rbaa

import (
	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/symbolic"
)

// Analysis wraps pointer.Analysis as an alias.Analysis.
type Analysis struct {
	*pointer.Analysis
}

var _ alias.Analysis = (*Analysis)(nil)

// New runs the full pipeline of Fig. 5 on m (already in e-SSA form).
func New(m *ir.Module, opts pointer.Options) *Analysis {
	return &Analysis{pointer.Analyze(m, opts)}
}

// Alias answers one query with the combined global + local test.
func (a *Analysis) Alias(p, q *ir.Value) alias.Result {
	if ans, _ := a.Query(p, q); ans == pointer.NoAlias {
		return alias.NoAlias
	}
	return alias.MayAlias
}

var _ alias.Explainer = (*Analysis)(nil)

// Explain implements alias.Explainer: no-alias answers carry the
// pointer.Reason string that Fig. 14 attributes them to.
func (a *Analysis) Explain(p, q *ir.Value) (alias.Result, string) {
	if ans, why := a.Query(p, q); ans == pointer.NoAlias {
		return alias.NoAlias, why.String()
	}
	return alias.MayAlias, ""
}

var _ alias.RangeDigester = (*Analysis)(nil)

// RangeDigests implements alias.RangeDigester: the GR MemLocs and LR
// locations of one function's pointer values, flattened into the compiled
// column the alias.Index pair check reads. Every GR bound and LR offset is
// digested into a (shape id, constant) pair over the function's shape
// table, so the column keeps no expression and its compares never reach
// the symbolic prover.
func (a *Analysis) RangeDigests(f *ir.Func, universe []*ir.Value) *alias.RangeColumn {
	n := len(universe)
	c := &alias.RangeColumn{
		Top:     make([]bool, n),
		Start:   make([]int32, n+1),
		LRLoc:   make([]int32, n),
		LRShape: make([]int32, n),
		LRK:     make([]int64, n),
	}
	t := newShapeTable()
	for i, v := range universe {
		g := a.GR.Value(v)
		if g.IsTop() {
			c.Top[i] = true
		} else {
			for k := 0; k < g.NumRanges(); k++ {
				site, r := g.Range(k)
				lo, hi := t.digest(r.Lo()), t.digest(r.Hi())
				c.Ranges = append(c.Ranges, alias.GRRange{Site: int32(site),
					LoShape: lo.Shape, HiShape: hi.Shape, Lo: lo.K, Hi: hi.K})
			}
		}
		c.Start[i+1] = int32(len(c.Ranges))

		loc, _ := a.LR.Loc(v)
		off := t.digest(a.LR.Offset(v))
		c.LRLoc[i], c.LRShape[i], c.LRK[i] = int32(loc), off.Shape, off.K
	}
	t.fill(c)
	return c
}

// shapeTable numbers one function's bound shapes densely and keeps the
// argument digests of every min and max shape. A bound's shape is its
// symbolic.Expr.SplitConst shape: two bounds get one id exactly when their
// canonical term lists are equal, which is when symbolic.Compare finds
// their difference constant.
type shapeTable struct {
	ids      map[*symbolic.Expr]int32
	argStart []int32 // by shape id, prefix offsets into args (len = shapes+1)
	isMax    []bool
	args     []alias.Bound
}

func newShapeTable() *shapeTable {
	// Shape id 0 is alias.ShapeConst, which has no arguments.
	return &shapeTable{ids: map[*symbolic.Expr]int32{}, argStart: []int32{0, 0}, isMax: []bool{false}}
}

// digest returns e's (shape id, constant) pair, numbering e's shape on
// first sight. A min's or max's arguments are digested before the min or
// max itself is numbered, so shape ids and their argument runs stay in one
// order and argStart is a prefix array.
func (t *shapeTable) digest(e *symbolic.Expr) alias.Bound {
	switch {
	case e.IsNegInf():
		return alias.Bound{Shape: alias.ShapeNegInf}
	case e.IsPosInf():
		return alias.Bound{Shape: alias.ShapePosInf}
	}
	shape, k := e.SplitConst()
	if shape == nil {
		return alias.Bound{Shape: alias.ShapeConst, K: k}
	}
	if id, ok := t.ids[shape]; ok {
		return alias.Bound{Shape: id, K: k}
	}
	var args []alias.Bound
	kind := shape.Kind()
	if kind == symbolic.KMin || kind == symbolic.KMax {
		xs := shape.Args()
		args = make([]alias.Bound, len(xs))
		for i, x := range xs {
			args[i] = t.digest(x)
		}
	}
	id := int32(len(t.isMax)) // one isMax entry per numbered shape
	t.ids[shape] = id
	t.args = append(t.args, args...)
	t.argStart = append(t.argStart, int32(len(t.args)))
	t.isMax = append(t.isMax, kind == symbolic.KMax)
	return alias.Bound{Shape: id, K: k}
}

// fill hands the shape table to c, which keeps it only when some shape is
// a min or a max (one has arguments): without one, no compare consults it.
func (t *shapeTable) fill(c *alias.RangeColumn) {
	if len(t.args) > 0 {
		c.ArgStart, c.IsMax, c.Args = t.argStart, t.isMax, t.args
	}
}

// Attribution tallies no-alias answers per reason over all module queries —
// the data behind Fig. 14 ("column noalias … column global").
type Attribution struct {
	Queries         int
	NoAlias         int
	DisjointSupport int
	GlobalRange     int
	LocalRange      int
}

// Attribute runs every query and classifies the no-alias answers.
func (a *Analysis) Attribute(m *ir.Module) Attribution {
	var at Attribution
	for _, pr := range alias.Queries(m) {
		at.Queries++
		ans, why := a.Query(pr.P, pr.Q)
		if ans != pointer.NoAlias {
			continue
		}
		at.NoAlias++
		switch why {
		case pointer.ReasonDisjointSupport:
			at.DisjointSupport++
		case pointer.ReasonGlobalRange:
			at.GlobalRange++
		case pointer.ReasonLocalRange:
			at.LocalRange++
		}
	}
	return at
}
