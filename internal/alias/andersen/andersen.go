// Package andersen implements an inclusion-based (Andersen-style) points-to
// analysis: flow- and context-insensitive, field-insensitive, with abstract
// objects per allocation site and global. Unlike the paper's GR analysis it
// *does* track pointers through memory (store/load constraints), which is
// exactly the complementary capability §3.4 alludes to ("a typical
// compilation infra-structure already contains analyses that are able to
// track the propagation of pointer information throughout memory").
//
// The package serves two roles:
//
//  1. a standalone alias analysis (disjoint points-to sets ⇒ no-alias),
//     realizing the paper's related-work proposal that classic points-to
//     algorithms be combined with the range representation;
//  2. a refinement oracle for GR: with pointer.Options.PointsTo set, loads
//     of pointers get the loaded set's sites with unknown offsets instead
//     of ⊤ — restoring support-disjointness answers for pointers that
//     round-trip through memory.
//
// Soundness: anything that reaches an extern call, or is loaded from
// memory an extern may have written, degrades to the universal set.
//
// Representation: points-to sets are sparse sets over allocation-site
// indices plus one ⊤ bit — runs of (word index, 64-bit word) pairs, so a
// set costs what its sites occupy rather than a row as wide as the module's
// site count — kept in one shared arena while solving and compacted into
// an alias.SetColumn for the Result. The solver is a worklist with
// difference propagation: every node remembers the portion of its set
// already pushed to its successors ("done") and only the delta flows on
// re-visits. Nodes are the module's pointer values, one content node per
// abstract object, and one escape sink whose set accumulates the objects
// reachable from extern calls. Load/store constraints add copy edges lazily
// as the address sets grow, unioning the source's full current set at
// edge-creation time, which keeps difference propagation exact.
package andersen

import (
	"math/bits"

	"repro/internal/alias"
	"repro/internal/ir"
)

// Result holds the points-to solution: one sparse set per pointer value,
// queried by value, with ⊤ lifted into the column's Unknown flag (an
// unknown value keeps no sites). It is immutable after Analyze and safe
// for concurrent use.
type Result struct {
	sites  []ir.Site
	nodeOf map[*ir.Value]int32
	// base is the first value node: sol's row i is node base+i.
	base int32
	sol  alias.SetColumn
}

var _ alias.Analysis = (*Result)(nil)

// Name identifies the analysis.
func (r *Result) Name() string { return "andersen" }

// row resolves v to its row in sol: -1 for a value without one, whose set
// is empty (a constant such as null) or, for an untracked pointer, ⊤.
func (r *Result) row(v *ir.Value) (row int32, unknown bool) {
	id, ok := r.nodeOf[v]
	if !ok {
		return -1, v.Kind != ir.VConst
	}
	row = id - r.base
	return row, r.sol.Unknown[row]
}

// PointsTo returns the sorted site indices v may address; unknown=true
// means ⊤ (the slice is then meaningless). Constants (null) have empty
// known sets; untracked pointers are conservatively ⊤.
func (r *Result) PointsTo(v *ir.Value) (sites []int, unknown bool) {
	row, unknown := r.row(v)
	if unknown || row < 0 {
		return nil, unknown
	}
	lo, hi := r.sol.Start[row], r.sol.Start[row+1]
	n := 0
	for _, w := range r.sol.Words[lo:hi] {
		n += bits.OnesCount64(w)
	}
	out := make([]int, 0, n)
	forEach(r.sol.Idx[lo:hi], r.sol.Words[lo:hi], func(b int) { out = append(out, b) })
	return out, false
}

// Alias reports no-alias when both points-to sets are known and disjoint:
// a merge of the two runs, allocation-free.
func (r *Result) Alias(p, q *ir.Value) alias.Result {
	rp, up := r.row(p)
	rq, uq := r.row(q)
	if up || uq || rp >= 0 && rq >= 0 && r.sol.Intersects(rp, rq) {
		return alias.MayAlias
	}
	return alias.NoAlias
}

var _ alias.SetDigester = (*Result)(nil)

// SetDigests implements alias.SetDigester: the runs of one function's
// pointer values copied into a per-function column, sized exactly.
// Untracked values compile as unknown, exactly like Alias.
func (r *Result) SetDigests(f *ir.Func, universe []*ir.Value) *alias.SetColumn {
	c := &alias.SetColumn{
		Start:   make([]int32, len(universe)+1),
		Unknown: make([]bool, len(universe)),
	}
	pairs := int32(0)
	for _, v := range universe {
		if row, unknown := r.row(v); !unknown && row >= 0 {
			pairs += r.sol.Start[row+1] - r.sol.Start[row]
		}
	}
	c.Idx = make([]int32, 0, pairs)
	c.Words = make([]uint64, 0, pairs)
	for i, v := range universe {
		row, unknown := r.row(v)
		c.Unknown[i] = unknown
		if !unknown && row >= 0 {
			lo, hi := r.sol.Start[row], r.sol.Start[row+1]
			c.Idx = append(c.Idx, r.sol.Idx[lo:hi]...)
			c.Words = append(c.Words, r.sol.Words[lo:hi]...)
		}
		c.Start[i+1] = int32(len(c.Idx))
	}
	return c
}

// ---------------------------------------------------------------------------
// Constraint collection and the worklist solver.

// Node-id layout: 0 is the escape sink, 1..n are the object content nodes
// (objNode(site) = 1 + site), and pointer values follow.
const escapeNode int32 = 0

type solver struct {
	n     int // sites; bit n is the ⊤ marker
	nodes int32

	nodeOf map[*ir.Value]int32

	// Constraints, by node id: succ[v] are v's copy-edge targets (load and
	// store constraints add more while solving), loads.of(v) the
	// destinations of loads through v and stores.of(v) the values stored
	// through it. Collection records them as pairs in edges, loadPairs and
	// storePairs until the node count is known, so each table is sized
	// once, exactly.
	succ                         [][]int32
	loads, stores                rows
	edges, loadPairs, storePairs []pair

	// edgeSeen dedupes copy edges (static and the ones load/store
	// constraints add during solving).
	edgeSeen map[uint64]struct{}

	// pts holds the current sets and, word by word, their
	// already-propagated portion ("done"); nil spans until solving starts.
	pts arena

	queue []int32
	inQ   []bool
}

func (s *solver) objNode(site int) int32 { return 1 + int32(site) }

func (s *solver) valNode(v *ir.Value) int32 {
	if id, ok := s.nodeOf[v]; ok {
		return id
	}
	id := s.newNode()
	s.nodeOf[v] = id
	return id
}

func (s *solver) newNode() int32 {
	id := s.nodes
	s.nodes++
	return id
}

// pair is one constraint as collection records it: a copy edge src → dst,
// a load through address src into dst, or a store of dst through src.
type pair struct{ src, dst int32 }

// rows groups pairs by source node over one array: row v is
// dst[at[v]:at[v+1]], in recording order.
type rows struct {
	at, dst []int32
}

func (r *rows) of(v int32) []int32 { return r.dst[r.at[v]:r.at[v+1]] }

// group lays pairs out as rows, one per node: a counting sort by source
// that keeps the recording order within a row.
func group(nodes int32, pairs []pair) rows {
	r := rows{at: make([]int32, nodes+1), dst: make([]int32, len(pairs))}
	for _, p := range pairs {
		r.at[p.src]++
	}
	end := int32(0)
	for v := range nodes {
		end += r.at[v]
		r.at[v] = end
	}
	r.at[nodes] = end
	for i := len(pairs) - 1; i >= 0; i-- {
		p := pairs[i]
		r.at[p.src]--
		r.dst[r.at[p.src]] = p.dst
	}
	return r
}

// freeze ends collection: with the node count known, it lays out the
// recorded constraints as exactly sized tables. Each copy-edge row gets no
// spare capacity, so an edge added while solving moves that row alone.
func (s *solver) freeze() {
	g := group(s.nodes, s.edges)
	s.succ = make([][]int32, s.nodes)
	for v := range s.nodes {
		s.succ[v] = g.dst[g.at[v]:g.at[v+1]:g.at[v+1]]
	}
	s.loads = group(s.nodes, s.loadPairs)
	s.stores = group(s.nodes, s.storePairs)
	s.edges, s.loadPairs, s.storePairs = nil, nil, nil
}

func (s *solver) push(id int32) {
	if !s.inQ[id] {
		s.inQ[id] = true
		s.queue = append(s.queue, id)
	}
}

// addEdge installs the copy edge a → b (deduped). During collection it
// only records the edge; while solving it also floods a's full current set
// into b — required for exactness because a's earlier deltas predate the
// edge.
func (s *solver) addEdge(a, b int32) {
	if a == b {
		return
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if _, ok := s.edgeSeen[key]; ok {
		return
	}
	s.edgeSeen[key] = struct{}{}
	if s.succ == nil {
		s.edges = append(s.edges, pair{a, b})
		return
	}
	s.succ[a] = append(s.succ[a], b)
	if ai, aw := s.pts.get(a); s.pts.union(b, ai, aw) {
		s.push(b)
	}
}

// Analyze runs the constraint solver over the module.
func Analyze(m *ir.Module) *Result {
	s := &solver{
		nodeOf:   map[*ir.Value]int32{},
		edgeSeen: map[uint64]struct{}{},
	}
	sites := m.AllocSites()
	s.n = len(sites)

	siteOf := map[*ir.Instr]int{}
	gsite := map[*ir.Global]int{}
	for _, st := range sites {
		if st.Instr != nil {
			siteOf[st.Instr] = st.ID
		} else {
			gsite[st.Global] = st.ID
		}
	}

	// Escape sink and object content nodes.
	s.newNode()
	for i := 0; i < s.n; i++ {
		s.newNode()
	}

	// Seeds are recorded during collection and applied once rows exist.
	type seedC struct {
		node int32
		bit  int
	}
	var seeds []seedC
	seed := func(v *ir.Value, bit int) {
		seeds = append(seeds, seedC{s.valNode(v), bit})
	}
	unknownBit := s.n

	calledParams := map[*ir.Value]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAlloc:
					seed(in.Res, siteOf[in])
				case ir.OpCopy, ir.OpPi, ir.OpFree:
					if in.Res.Typ == ir.TPtr {
						s.addEdge(s.valNode(in.Args[0]), s.valNode(in.Res))
					}
				case ir.OpPtrAdd:
					s.addEdge(s.valNode(in.Args[0]), s.valNode(in.Res))
				case ir.OpPhi:
					if in.Res.Typ == ir.TPtr {
						for _, a := range in.Args {
							s.addEdge(s.valNode(a), s.valNode(in.Res))
						}
					}
				case ir.OpLoad:
					if in.Res.Typ == ir.TPtr {
						addr := s.valNode(in.Args[0])
						s.loadPairs = append(s.loadPairs, pair{addr, s.valNode(in.Res)})
					}
				case ir.OpStore:
					if in.Args[1].Typ == ir.TPtr {
						addr := s.valNode(in.Args[0])
						s.storePairs = append(s.storePairs, pair{addr, s.valNode(in.Args[1])})
					}
				case ir.OpCall:
					for i, a := range in.Args {
						p := in.Callee.Params[i]
						if p.Typ == ir.TPtr {
							s.addEdge(s.valNode(a), s.valNode(p))
							calledParams[p] = true
						}
					}
				case ir.OpExtern:
					// Arguments escape to unknown memory; results are ⊤.
					for _, a := range in.Args {
						if a.Typ == ir.TPtr {
							s.addEdge(s.valNode(a), escapeNode)
						}
					}
					if in.Res != nil && in.Res.Typ == ir.TPtr {
						seed(in.Res, unknownBit)
					}
				}
			}
		}
	}
	// Return values flow to call results.
	rets := map[*ir.Func][]*ir.Value{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpRet && len(in.Args) == 1 && in.Args[0].Typ == ir.TPtr {
					rets[f] = append(rets[f], in.Args[0])
				}
			}
		}
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Res != nil && in.Res.Typ == ir.TPtr {
					if len(rets[in.Callee]) == 0 {
						seed(in.Res, unknownBit)
					}
					for _, rv := range rets[in.Callee] {
						s.addEdge(s.valNode(rv), s.valNode(in.Res))
					}
				}
			}
		}
	}
	// Globals are address-taken roots; parameters of externally callable
	// functions are ⊤.
	for _, f := range m.Funcs {
		for _, p := range f.Params {
			if p.Typ == ir.TPtr && !calledParams[p] {
				seed(p, unknownBit)
			}
		}
	}
	for _, g := range m.Globals {
		seed(g.Addr, gsite[g])
	}

	// Every node exists now: lay out the constraints and the sets, apply
	// the seeds and run the worklist.
	s.freeze()
	s.pts = newArena(s.nodes)
	s.inQ = make([]bool, s.nodes)
	for _, sd := range seeds {
		if s.pts.add(sd.node, sd.bit) {
			s.push(sd.node)
		}
	}
	s.solve()

	return &Result{
		sites:  sites,
		nodeOf: s.nodeOf,
		base:   s.objNode(s.n),
		sol:    s.compact(s.objNode(s.n)),
	}
}

// compact copies the solved sets of nodes base.. into an exactly sized
// column, lifting ⊤ into Unknown. The sink's and the content nodes' sets
// stay behind: no value resolves to them.
func (s *solver) compact(base int32) alias.SetColumn {
	rows := s.nodes - base
	c := alias.SetColumn{Start: make([]int32, rows+1), Unknown: make([]bool, rows)}
	pairs := int32(0)
	for i := range rows {
		if c.Unknown[i] = s.pts.top(base+i, s.n); !c.Unknown[i] {
			pairs += s.pts.spans[base+i].n
		}
	}
	c.Idx = make([]int32, pairs)
	c.Words = make([]uint64, pairs)
	at := int32(0)
	for i := range rows {
		if !c.Unknown[i] {
			ki, kw := s.pts.get(base + i)
			copy(c.Idx[at:], ki)
			copy(c.Words[at:], kw)
			at += int32(len(ki))
		}
		c.Start[i+1] = at
	}
	return c
}

// solve drains the worklist with difference propagation: each visit
// processes only the bits that arrived since the node was last propagated.
func (s *solver) solve() {
	var delta []int32
	var deltaW []uint64
	for len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		s.inQ[v] = false

		delta, deltaW = s.pts.takeDelta(v, delta[:0], deltaW[:0])
		if len(delta) == 0 {
			continue
		}

		// Complex constraints: the delta's objects materialize copy edges.
		if loads, stores := s.loads.of(v), s.stores.of(v); len(loads) > 0 || len(stores) > 0 {
			hasUnknown := false
			forEach(delta, deltaW, func(bit int) {
				if bit >= s.n {
					hasUnknown = true
					return
				}
				o := s.objNode(bit)
				for _, dst := range loads {
					s.addEdge(o, dst)
				}
				for _, val := range stores {
					s.addEdge(val, o)
				}
			})
			if hasUnknown {
				// Loading through ⊤ yields ⊤; storing through ⊤ makes the
				// stored values' objects escape entirely.
				for _, dst := range loads {
					if s.pts.add(dst, s.n) {
						s.push(dst)
					}
				}
				for _, val := range stores {
					s.addEdge(val, escapeNode)
				}
			}
		}

		// Copy-edge propagation of the delta.
		for _, d := range s.succ[v] {
			if s.pts.union(d, delta, deltaW) {
				s.push(d)
			}
		}

		// Escape closure: objects reaching the sink hold ⊤-contaminated
		// cells whose contents escape transitively.
		if v == escapeNode {
			forEach(delta, deltaW, func(bit int) {
				if bit >= s.n {
					return
				}
				o := s.objNode(bit)
				if s.pts.add(o, s.n) {
					s.push(o)
				}
				s.addEdge(o, escapeNode)
			})
		}
	}
}

// Sites exposes the allocation-site table the solution is indexed by.
func (r *Result) Sites() []ir.Site { return r.sites }
