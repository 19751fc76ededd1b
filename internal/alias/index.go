package alias

import (
	"math/bits"

	"repro/internal/interval"
	"repro/internal/ir"
	"repro/internal/symbolic"
)

// Compiled alias index. When a module build reaches ready, each function is
// compiled into a frozen, value-numbered universe with one flat *column* per
// chain member: rbaa's GR range digests and LR locations, basicaa's
// underlying-object classes, scevaa's closed-form classes, and andersen's
// sparse points-to sets. A pair verdict over the index is a handful of array
// lookups (plus a merge of two short site runs for the points-to member)
// instead of interface dispatch through the Manager chain — and the verdict is
// *identical* to what Manager.Evaluate computes, member for member, detail
// for detail, which is what lets the service answer from the index alone
// and drop the chain once the index is built.
//
// Member analyses participate by implementing one of the Digester
// interfaces below (they already import this package, so the column types
// live here and the decision procedures are replicated over the compiled
// digests). A chain whose members all digest is fully index-served; a pair
// involving a value outside the universe (a pointer constant, a global
// operand, a cross-function pair) is index-inconclusive.

// GRRange is one compiled component of a pointer's global MemLoc: the
// allocation site and the symbolic offset interval. When both bounds share
// one additive shape (lo = Shape + Lo, hi = Shape + Hi; Shape nil for pure
// constants — see symbolic.Expr.SplitConst), the component is Sweepable:
// disjointness against a same-shape component is two integer compares, and
// the planner can sort it onto a sweep line. Mixed-shape comparisons fall
// back to the full symbolic prover, exactly like the chain.
type GRRange struct {
	Site      int32
	Sweepable bool
	Shape     *symbolic.Expr // nil = constant bounds; interned, so == is shape equality
	Lo, Hi    int64          // valid when Sweepable
	R         interval.Interval
}

// RangeColumn is the compiled form of rbaa's pair-local data for one
// function universe: per-value GR MemLocs flattened into one shared GRRange
// array (Start[i]..Start[i+1] are value i's components, sorted by site) and
// the LR location/offset pairs of the local test.
type RangeColumn struct {
	Top    []bool    // GR(v) = ⊤
	Start  []int32   // len = n+1; prefix offsets into Ranges
	Ranges []GRRange // Start[i] == Start[i+1] means GR(v) = ⊥

	LRLoc     []int32
	LROff     []*symbolic.Expr
	LRConst   []int64 // valid when LRIsConst
	LRIsConst []bool
}

// rangesOf returns value i's GR components.
func (c *RangeColumn) rangesOf(i int32) []GRRange {
	return c.Ranges[c.Start[i]:c.Start[i+1]]
}

// grDisjoint reports interval disjointness of two components: when both
// decompose over the same shape, the shape cancels under subtraction (the
// paper's symbolic-difference argument) and two integer compares decide;
// otherwise the chain's full prover runs.
func grDisjoint(a, b *GRRange) bool {
	if a.Sweepable && b.Sweepable && a.Shape == b.Shape {
		return a.Hi < b.Lo || b.Hi < a.Lo
	}
	return interval.ProvablyDisjoint(a.R, b.R)
}

// pair replicates pointer.Analysis.Query over the compiled digests: the
// global test (support disjointness, then per-site range disjointness), then
// the local test. The returned detail is rbaa's Fig. 14 reason string, ""
// for may-alias — exactly what the chain's Explainer reports.
func (c *RangeColumn) pair(i, j int32) (Result, string) {
	if !c.Top[i] && !c.Top[j] {
		ra, rb := c.rangesOf(i), c.rangesOf(j)
		common, disjoint := false, true
		x, y := 0, 0
		for x < len(ra) && y < len(rb) {
			switch {
			case ra[x].Site < rb[y].Site:
				x++
			case ra[x].Site > rb[y].Site:
				y++
			default:
				common = true
				if !grDisjoint(&ra[x], &rb[y]) {
					disjoint = false
					x = len(ra) // abort the walk, fall through to LR
				} else {
					x++
					y++
				}
			}
		}
		if disjoint {
			if !common {
				return NoAlias, "disjoint-support"
			}
			return NoAlias, "global-range"
		}
	}
	// Local test: same abstract location, provably different exact offsets.
	if c.LRLoc[i] == c.LRLoc[j] {
		if c.LRIsConst[i] && c.LRIsConst[j] {
			if c.LRConst[i] != c.LRConst[j] {
				return NoAlias, "local-range"
			}
		} else if c.LROff[i] != c.LROff[j] { // interned: equal ⇒ same expr
			// Two one-sided compares, exactly like interval.ProvablyDisjoint
			// on the point intervals (the prover is not antisymmetric, so a
			// single compare would be weaker than the chain's test).
			if symbolic.Compare(c.LROff[i], c.LROff[j]).ProvesLT() ||
				symbolic.Compare(c.LROff[j], c.LROff[i]).ProvesLT() {
				return NoAlias, "local-range"
			}
		}
	}
	return MayAlias, ""
}

// ClassFlags encode basicaa's per-value resolution outcome and the flags of
// the resolved root object.
type ClassFlags uint8

// Class flag bits.
const (
	ClassExact       ClassFlags = 1 << iota // offset from root exactly known
	ClassSawPhi                             // resolution stopped at a φ
	ClassRootNull                           // root is the null literal
	ClassRootIdent                          // root is an identified object (alloc/global)
	ClassRootEscaped                        // identified root's address escapes
	ClassRootUnknown                        // root has unknown provenance (param/load/call)
)

// ClassColumn is the compiled form of basicaa's underlying-object
// resolution: the root value, the accumulated constant offset and the flag
// set per universe value.
type ClassColumn struct {
	Root  []*ir.Value
	Off   []int64
	Flags []ClassFlags
}

// pair replicates basicaa.Alias over the compiled classes.
func (c *ClassColumn) pair(i, j int32) Result {
	fi, fj := c.Flags[i], c.Flags[j]
	if fi&ClassSawPhi != 0 || fj&ClassSawPhi != 0 {
		return MayAlias
	}
	if fi&ClassRootNull != 0 && fj&(ClassRootIdent|ClassRootNull) != 0 {
		return NoAlias
	}
	if fj&ClassRootNull != 0 && fi&ClassRootIdent != 0 {
		return NoAlias
	}
	if c.Root[i] == c.Root[j] {
		if fi&ClassExact != 0 && fj&ClassExact != 0 && c.Off[i] != c.Off[j] {
			return NoAlias
		}
		return MayAlias
	}
	if fi&ClassRootIdent != 0 && fj&ClassRootIdent != 0 {
		return NoAlias
	}
	if fi&ClassRootIdent != 0 && fi&ClassRootEscaped == 0 && fj&ClassRootUnknown != 0 {
		return NoAlias
	}
	if fj&ClassRootIdent != 0 && fj&ClassRootEscaped == 0 && fi&ClassRootUnknown != 0 {
		return NoAlias
	}
	return MayAlias
}

// SCEVColumn is the compiled form of scevaa's closed forms: per value the
// base object, the constant part of the offset, whether the offset involves
// a loop iteration counter, and an intra-function *shape id* interning the
// offset's entire symbolic part — two offsets subtract to a constant exactly
// when their shapes are equal. Shape -1 marks a non-affine offset.
type SCEVColumn struct {
	Base    []*ir.Value
	Shape   []int32
	Konst   []int64
	HasIter []bool
}

// pair replicates scevaa.Alias over the compiled closed forms.
func (c *SCEVColumn) pair(i, j int32) Result {
	if c.Base[i] != c.Base[j] {
		return MayAlias
	}
	if !c.HasIter[i] && !c.HasIter[j] {
		return MayAlias
	}
	if c.Shape[i] < 0 || c.Shape[i] != c.Shape[j] {
		return MayAlias
	}
	if c.Konst[i] != c.Konst[j] {
		return NoAlias
	}
	return MayAlias
}

// SetColumn is the compiled form of a points-to analysis: one sparse site
// set per value, plus the ⊤ marker. A set is a run of (word index, word)
// pairs ascending by word index with no zero word: site s is in the set
// when the pair with index s/64 has bit s%64. Value i's run is
// Idx[Start[i]:Start[i+1]] with the matching Words, and an Unknown value's
// run is empty. A one-site set costs 12 bytes, and a set over every site
// at most 1.5x a dense bitset row, so the column grows with the sites the
// sets hold, not with the module's site count.
type SetColumn struct {
	Start   []int32 // len n+1; prefix offsets into Idx and Words
	Idx     []int32
	Words   []uint64
	Unknown []bool
}

// Intersects reports whether the runs of values i and j share a site: a
// merge of the two runs that ANDs the words at equal indices. It does not
// look at Unknown.
func (c *SetColumn) Intersects(i, j int32) bool {
	ai, aw := c.Idx[c.Start[i]:c.Start[i+1]], c.Words[c.Start[i]:c.Start[i+1]]
	bi, bw := c.Idx[c.Start[j]:c.Start[j+1]], c.Words[c.Start[j]:c.Start[j+1]]
	for x, y := 0, 0; x < len(ai) && y < len(bi); {
		switch {
		case ai[x] < bi[y]:
			x++
		case ai[x] > bi[y]:
			y++
		default:
			if aw[x]&bw[y] != 0 {
				return true
			}
			x++
			y++
		}
	}
	return false
}

// pair replicates andersen's disjoint-points-to test.
func (c *SetColumn) pair(i, j int32) Result {
	if c.Unknown[i] || c.Unknown[j] || c.Intersects(i, j) {
		return MayAlias
	}
	return NoAlias
}

// RangeDigester is implemented by members that compile to a RangeColumn
// (rbaa). The universe is one function's pointer values in index order.
type RangeDigester interface {
	Analysis
	RangeDigests(f *ir.Func, universe []*ir.Value) *RangeColumn
}

// ClassDigester is implemented by members that compile to a ClassColumn
// (basicaa).
type ClassDigester interface {
	Analysis
	ClassDigests(f *ir.Func, universe []*ir.Value) *ClassColumn
}

// SCEVDigester is implemented by members that compile to a SCEVColumn
// (scevaa).
type SCEVDigester interface {
	Analysis
	SCEVDigests(f *ir.Func, universe []*ir.Value) *SCEVColumn
}

// SetDigester is implemented by members that compile to a SetColumn
// (andersen).
type SetDigester interface {
	Analysis
	SetDigests(f *ir.Func, universe []*ir.Value) *SetColumn
}

// column is the per-member tagged union of an index; exactly one field is
// non-nil.
type column struct {
	rng  *RangeColumn
	cls  *ClassColumn
	scev *SCEVColumn
	set  *SetColumn
}

// FuncIndex is one function's compiled universe: the pointer values of the
// function in a fixed order, a dense value-ID → universe-number table, and
// one column per chain member. It is immutable after BuildIndex and safe
// for concurrent readers.
//
// aliaslint:frozen
type FuncIndex struct {
	universe []*ir.Value
	vnum     []int32 // by ir.Value.ID; -1 = not in the universe
	cols     []column
	// rangeMember is the chain position of the RangeColumn member (the
	// sweep-key provider and Fig. 14 detail source), or -1.
	rangeMember int
	// sweepDisjoint and sweepGlobal are the two partition-separated
	// verdicts, built once so the planner's hottest path allocates nothing.
	// Their details slices are shared and must never be mutated.
	sweepDisjoint, sweepGlobal Verdict
	// localRange is the shared details slice of a local-range proof at
	// rangeMember, the third Fig. 14 reason beside the two above: with it
	// evaluate allocates nothing for any detail the range member reports.
	localRange []string
}

// Len returns the universe size.
func (fi *FuncIndex) Len() int { return len(fi.universe) }

// num resolves a value to its universe number, -1 when unindexed.
func (fi *FuncIndex) num(v *ir.Value) int32 {
	if v.ID < 0 || v.ID >= len(fi.vnum) {
		return -1
	}
	return fi.vnum[v.ID]
}

// evaluate computes the full chain verdict for universe members i and j —
// the same Verdict Manager.compute produces for the pair, member for member.
func (fi *FuncIndex) evaluate(i, j int32) Verdict {
	v := Verdict{Resolved: -1}
	for mi := range fi.cols {
		col := &fi.cols[mi]
		var res Result
		var detail string
		switch {
		case col.rng != nil:
			res, detail = col.rng.pair(i, j)
		case col.cls != nil:
			res = col.cls.pair(i, j)
		case col.scev != nil:
			res = col.scev.pair(i, j)
		case col.set != nil:
			res = col.set.pair(i, j)
		}
		if res == NoAlias {
			v.mask |= 1 << uint(mi)
			if v.Resolved < 0 {
				v.Resolved = mi
				v.Result = NoAlias
			}
		}
		if detail != "" {
			if shared := fi.sharedDetails(mi, detail); v.details == nil && shared != nil {
				v.details = shared
			} else {
				// A detail from a second range member: copy, since
				// v.details may be one of the shared slices.
				d := make([]string, len(fi.cols))
				copy(d, v.details)
				d[mi] = detail
				v.details = d
			}
		}
	}
	return v
}

// sharedDetails returns the shared details slice that carries reason at
// member mi, nil unless mi is rangeMember and reason one of its three
// Fig. 14 reasons. Callers must not mutate the result.
func (fi *FuncIndex) sharedDetails(mi int, reason string) []string {
	if mi != fi.rangeMember {
		return nil
	}
	switch reason {
	case "disjoint-support":
		return fi.sweepDisjoint.details
	case "global-range":
		return fi.sweepGlobal.details
	case "local-range":
		return fi.localRange
	}
	return nil
}

// Index is a module's compiled alias index: one FuncIndex per function,
// keyed by the function pointer. Frozen after BuildIndex; all methods are
// safe for concurrent use.
//
// aliaslint:frozen
type Index struct {
	funcs    map[*ir.Func]*FuncIndex
	memBytes int64
	// label and names are the compiled chain's Name() and member names, so
	// verdicts render without the Manager they were compiled from.
	label string
	names []string
}

// BuildIndex compiles the manager's chain over every function of m. It
// returns nil when any member implements no Digester interface. The
// manager's members must answer queries for m's values (the same
// requirement Manager.Evaluate has); the index keeps none of them.
func BuildIndex(mg *Manager, m *ir.Module) *Index {
	for _, mem := range mg.members {
		switch mem.(type) {
		case RangeDigester, ClassDigester, SCEVDigester, SetDigester:
		default:
			return nil
		}
	}
	ix := &Index{funcs: make(map[*ir.Func]*FuncIndex, len(m.Funcs)), label: mg.label,
		names: make([]string, len(mg.members))}
	for i, mem := range mg.members {
		ix.names[i] = mem.Name()
	}
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
		fi := buildFuncIndex(mg, f, universe)
		ix.funcs[f] = fi
		ix.memBytes += fi.approxBytes()
	}
	return ix
}

// buildFuncIndex compiles one function's universe into a frozen FuncIndex.
func buildFuncIndex(mg *Manager, f *ir.Func, universe []*ir.Value) *FuncIndex {
	fi := &FuncIndex{universe: universe, vnum: make([]int32, f.NumValues()), rangeMember: -1}
	for i := range fi.vnum {
		fi.vnum[i] = -1
	}
	for i, v := range universe {
		fi.vnum[v.ID] = int32(i)
	}
	fi.cols = make([]column, len(mg.members))
	for mi, mem := range mg.members {
		switch d := mem.(type) {
		case RangeDigester:
			fi.cols[mi].rng = d.RangeDigests(f, universe)
			if fi.rangeMember < 0 {
				fi.rangeMember = mi
			}
		case ClassDigester:
			fi.cols[mi].cls = d.ClassDigests(f, universe)
		case SCEVDigester:
			fi.cols[mi].scev = d.SCEVDigests(f, universe)
		case SetDigester:
			fi.cols[mi].set = d.SetDigests(f, universe)
		}
	}
	if mi := fi.rangeMember; mi >= 0 {
		fi.sweepDisjoint = Verdict{Result: NoAlias, Resolved: mi, mask: 1 << uint(mi),
			details: detailAt(len(fi.cols), mi, "disjoint-support")}
		fi.sweepGlobal = Verdict{Result: NoAlias, Resolved: mi, mask: 1 << uint(mi),
			details: detailAt(len(fi.cols), mi, "global-range")}
		fi.localRange = detailAt(len(fi.cols), mi, "local-range")
	}
	return fi
}

// detailAt builds an n-member detail slice with one entry set.
func detailAt(n, i int, s string) []string {
	d := make([]string, n)
	d[i] = s
	return d
}

// Name returns the compiled chain's label.
func (ix *Index) Name() string { return ix.label }

// NumMembers returns the length of the compiled chain.
func (ix *Index) NumMembers() int { return len(ix.names) }

// MemberName returns the Name() of chain member i.
func (ix *Index) MemberName(i int) string { return ix.names[i] }

// Func returns the compiled index of f, nil when f has no pointer values.
func (ix *Index) Func(f *ir.Func) *FuncIndex { return ix.funcs[f] }

// NumFuncs returns how many functions were compiled.
func (ix *Index) NumFuncs() int { return len(ix.funcs) }

// MemBytes approximates the index's resident size — flat arrays plus the
// value-number tables — for the registry's per-module memory accounting.
func (ix *Index) MemBytes() int64 { return ix.memBytes }

// Evaluate answers one pair from the index alone: ok=false when the pair is
// index-inconclusive (values of different or unindexed functions, or values
// outside the universe).
func (ix *Index) Evaluate(p, q *ir.Value) (Verdict, bool) {
	if p.Func == nil || p.Func != q.Func {
		return Verdict{}, false
	}
	fi := ix.funcs[p.Func]
	if fi == nil {
		return Verdict{}, false
	}
	i, j := fi.num(p), fi.num(q)
	if i < 0 || j < 0 {
		return Verdict{}, false
	}
	return fi.evaluate(i, j), true
}

// funcIndexFixed is what one FuncIndex holds besides its arrays: the
// struct, its column headers, the shared detail slices and its map entry,
// with allocation slack — 1.16–1.18 KB measured on Fig. 15 modules [14]
// to [44].
const funcIndexFixed = 1170

// approxBytes sums the column footprints of one function index.
func (fi *FuncIndex) approxBytes() int64 {
	const ptrSize = 8
	n := funcIndexFixed + int64(len(fi.universe))*ptrSize + int64(len(fi.vnum))*4
	for i := range fi.cols {
		c := &fi.cols[i]
		switch {
		case c.rng != nil:
			n += int64(len(c.rng.Top)) + int64(len(c.rng.Start))*4 +
				int64(len(c.rng.Ranges))*56 +
				int64(len(c.rng.LRLoc))*(4+ptrSize+8+1)
		case c.cls != nil:
			n += int64(len(c.cls.Root))*ptrSize + int64(len(c.cls.Off))*8 + int64(len(c.cls.Flags))
		case c.scev != nil:
			n += int64(len(c.scev.Base))*ptrSize + int64(len(c.scev.Shape))*4 +
				int64(len(c.scev.Konst))*8 + int64(len(c.scev.HasIter))
		case c.set != nil:
			n += int64(len(c.set.Start))*4 + int64(len(c.set.Idx))*(4+8) + int64(len(c.set.Unknown))
		}
	}
	return n
}

// NumProvers returns how many chain members independently proved NoAlias —
// the capacity hint for rendering the prover list without reallocation.
func (v Verdict) NumProvers() int { return bits.OnesCount64(v.mask) }
