package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/frontend/minic"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/symbolic"
)

// BuildState is the lifecycle phase of a registered module. An async upload
// is registered Building (reserving its name before the parse/verify/
// analyze chain runs on a build worker), transitions once to Ready or
// Failed, and never changes again; synchronous uploads enter the registry
// already Ready.
type BuildState int32

const (
	StateBuilding BuildState = iota
	StateReady
	StateFailed
)

// String renders the state the way /v1/modules reports it.
func (s BuildState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("BuildState(%d)", int32(s))
}

// Handle is one registered module: the verified IR, the planner over the
// module's compiled alias index, and the value index the validate stage
// resolves query names against. The member analyses the index is compiled
// from are dropped once it is built. The built fields (Mod, Planner,
// IRStats, PairQueries, values, wire) are written exactly once — before
// the state turns Ready — and are immutable afterwards; readers must
// observe State() == StateReady before touching them.
//
// Handles are refcounted. Every registry lookup (Acquire, Get, List) pins
// the handle; callers release the pin with Release when done. A handle
// evicted or deleted from the registry is retired: it tears down — drops
// the module, planner and value index so their memory can be reclaimed —
// only when the last pin is released, so an in-flight batch keeps its
// evicted handle fully usable until completion.
//
// aliaslint:handle — acquisitions must Release on every path (enforced by
// the handleleak analyzer).
type Handle struct {
	Name      string
	Format    string // "ir" or "minic"
	CreatedAt time.Time

	Mod *ir.Module
	// Planner answers every batch from the compiled alias index it holds:
	// the sweep-line partition first, the index columns for the rest. The
	// index also carries the chain's label and member names.
	Planner *alias.Planner
	IRStats ir.Stats
	// PairQueries is the module's paper-style query count (all unordered
	// same-function pointer pairs) — the natural unit load generators
	// replay.
	PairQueries int

	// values indexes func name → value name → value for the validate stage.
	values map[string]map[string]*ir.Value
	// wire holds the module and member names pre-quoted for the response
	// encoder.
	wire wireNames

	// memBytes approximates the handle's resident cost (see estimateMem).
	memBytes int64

	// interner owns every symbolic expression the module's analyses minted
	// (pointer ranges, index shapes, planner keys). Module-scoped so that
	// retiring the handle releases the whole table — the expressions are
	// unreachable once Mod and Planner drop. Written once in runBuild,
	// cleared in teardown.
	interner *symbolic.Interner

	// buildErr is set before the state turns Failed.
	buildErr string

	state   atomic.Int32
	refs    atomic.Int64
	retired atomic.Bool
	closed  atomic.Bool
	lastUse atomic.Int64 // unix nanos of the last query-path acquire
}

// NewPending creates a handle in the Building state, ready to be reserved
// in the registry before its build runs.
func NewPending(name, format string) *Handle {
	h := &Handle{Name: name, Format: format, CreatedAt: time.Now()}
	h.lastUse.Store(h.CreatedAt.UnixNano())
	return h
}

// State returns the lifecycle phase. Observing StateReady also guarantees
// the built fields are visible (the atomic store publishes them).
func (h *Handle) State() BuildState { return BuildState(h.state.Load()) }

// Err returns the build failure message ("" unless State is StateFailed).
func (h *Handle) Err() string {
	if h.State() != StateFailed {
		return ""
	}
	return h.buildErr
}

// Closed reports whether the handle has been torn down (retired with no
// pins left). A closed handle must not be queried.
func (h *Handle) Closed() bool { return h.closed.Load() }

// MemBytes approximates the handle's resident memory.
func (h *Handle) MemBytes() int64 { return h.memBytes }

// Release drops one pin. When a retired handle loses its last pin it is
// torn down; until then every pinned reader — an in-flight batch foremost —
// sees it fully intact.
func (h *Handle) Release() {
	if h.refs.Add(-1) == 0 && h.retired.Load() {
		h.teardown()
	}
}

// retire marks the handle as removed from the registry and tears it down
// immediately when nothing pins it.
func (h *Handle) retire() {
	h.retired.Store(true)
	if h.refs.Load() == 0 {
		h.teardown()
	}
}

// teardown drops the built artifacts so the GC can reclaim them. Guarded by
// a CAS: retire and a racing final Release may both observe refs == 0.
// Reached only when the handle is out of the registry and unpinned, so no
// reader can be touching the fields it clears.
func (h *Handle) teardown() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	h.Mod = nil
	h.Planner = nil
	h.values = nil
	h.interner = nil
}

// InternedExprs reports how many symbolic expressions the module's own
// interner holds — the per-module share of aliasd_interner_claimed_exprs.
// Zero once the handle is torn down (the expressions were reclaimed) or for
// pre-build handles.
func (h *Handle) InternedExprs() int64 {
	if h.interner == nil {
		return 0
	}
	return h.interner.Stats().Interned
}

// Lookup resolves a "func", "name" reference against the handle's module.
func (h *Handle) Lookup(fn, name string) (*ir.Value, error) {
	vals, ok := h.values[fn]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", fn)
	}
	v, ok := vals[name]
	if !ok {
		return nil, fmt.Errorf("no value %q in function %q", name, fn)
	}
	return v, nil
}

// NewChain builds the service's analysis stack over one verified module:
// rbaa's construction runs the bootstrap range analysis and the GR/LR
// pointer analyses; scevaa, basicaa and the andersen points-to oracle
// complete the chain, combined LLVM-AAResults-style by an alias.Manager.
// The symbolic expressions the pointer analyses mint land in in (nil: the
// Default interner). runBuild passes a fresh per-module interner so a
// module's expressions die with its handle instead of accreting in the
// process-wide table; the index and planner only see expressions minted
// by the chain, so shape identity (pointer equality of interned exprs)
// stays consistent within the module.
func NewChain(m *ir.Module, in *symbolic.Interner) *alias.Manager {
	return alias.NewManager(alias.ManagerOptions{},
		scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{Interner: in}), andersen.Analyze(m))
}

// Resident-cost model of a built handle, in bytes, measured on Fig. 15
// modules of 349 to 95k instructions. irPerInstr is the live heap that
// parsing and verifying leave per instruction (values, operand and use
// lists, blocks and functions amortized); perValue is one entry of the
// per-function name → value maps, table slack included; exprNodeCost is
// one hash-consed symbolic expression (the Expr node, its term/arg slices
// and its share of the intern table).
const (
	irPerInstr   = 274
	perValue     = 49
	exprNodeCost = 208
)

// estimateMem approximates a built handle's resident cost from what it
// keeps: the source text (the parser's names are substrings of it, so it
// stays live), the IR, the value maps, the compiled index and the
// module's interned expressions. Deliberately coarse — the number feeds
// capacity dashboards and the budget governor, not an allocator.
func estimateMem(srcLen int, st ir.Stats, values int, ix *alias.Index, exprs int64) int64 {
	return int64(srcLen) + int64(st.Instrs)*irPerInstr + int64(values)*perValue +
		ix.MemBytes() + exprs*exprNodeCost
}

// runBuild runs the parse/verify/analyze chain, compiles the alias index
// from it and fills the built fields on success; the chain itself is
// dropped once the index holds its verdicts. Everything the build creates
// belongs to this handle alone, so retiring it frees all of it. It does
// NOT publish a state transition — the caller decides (BuildHandle and
// the sync upload and recovery paths for standalone handles,
// Registry.Finish for async builds, where promotion into the module table
// and the Ready transition must agree).
func (h *Handle) runBuild(src string, maxSourceBytes int) error {
	if maxSourceBytes > 0 && len(src) > maxSourceBytes {
		return fmt.Errorf("source is %d bytes, exceeding the %d-byte limit", len(src), maxSourceBytes)
	}
	var m *ir.Module
	var err error
	switch h.Format {
	case "ir":
		m, err = ir.Parse(src)
	case "minic":
		m, err = minic.Compile(h.Name, src)
	default:
		return fmt.Errorf("unknown format %q (want \"ir\" or \"minic\")", h.Format)
	}
	if err != nil {
		return fmt.Errorf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	// A fresh interner per module: every symbolic expression the chain
	// mints below is owned by this handle and reclaimed at teardown.
	in := symbolic.NewInterner()
	ix := alias.BuildIndex(NewChain(m, in), m)
	if ix == nil {
		return fmt.Errorf("analyze: the alias chain did not compile to an index")
	}
	h.Mod = m
	h.Planner = alias.NewPlanner(ix)
	h.wire = newWireNames(h.Name, ix)
	h.IRStats = m.Stats()
	h.PairQueries = alias.NumQueries(m)
	h.values = map[string]map[string]*ir.Value{}
	values := 0
	for _, f := range m.Funcs {
		vals := make(map[string]*ir.Value, len(f.Params))
		for _, v := range f.Values() {
			vals[v.Name] = v
		}
		h.values[f.Name] = vals
		values += len(vals)
	}
	h.interner = in
	h.memBytes = estimateMem(len(src), h.IRStats, values, ix, in.Stats().Interned)
	return nil
}

// finishReady publishes the built fields (atomic release store).
func (h *Handle) finishReady() { h.state.Store(int32(StateReady)) }

// fail records the build error and publishes the Failed state.
func (h *Handle) fail(err error) {
	h.buildErr = err.Error()
	h.state.Store(int32(StateFailed))
}

// BuildHandle parses (enforcing maxSourceBytes), verifies, and analyzes one
// module source synchronously — compiling the alias index and planner — and
// returns the Ready handle. format is "ir" or "minic". The returned error
// is safe to echo to clients.
func BuildHandle(name, format, src string, maxSourceBytes int) (*Handle, error) {
	h := NewPending(name, format)
	if err := h.runBuild(src, maxSourceBytes); err != nil {
		return nil, err
	}
	h.finishReady()
	return h, nil
}

// Registry is the bounded, concurrency-safe map of registered modules with
// lifecycle management. It keeps two tables:
//
//   - mods: Ready modules. Counted against the max bound; with eviction
//     enabled, registering into a full table displaces the
//     least-recently-queried module (preferring unpinned victims).
//   - staging: async builds in flight or failed. Name reservations only —
//     a build that has not proven viable can never evict a healthy module;
//     it is promoted into mods by Finish only once it succeeds.
//
// Every lookup pins the returned handle; see Handle.
type Registry struct {
	mu        sync.RWMutex
	max       int
	evictIdle bool
	mods      map[string]*Handle
	staging   map[string]*Handle
	evictions atomic.Int64
}

// NewRegistry builds a registry holding at most max Ready modules (≤ 0
// means unbounded; the same bound caps staged builds). With evictIdle, a
// registration into a full table evicts the least-recently-used module,
// preferring unpinned ones; evicting a pinned module is safe — its pins
// keep the retired handle usable until released — it just vanishes from
// the registry. Without the policy the registration fails.
func NewRegistry(max int, evictIdle bool) *Registry {
	return &Registry{max: max, evictIdle: evictIdle,
		mods: map[string]*Handle{}, staging: map[string]*Handle{}}
}

// takenLocked reports whether name is held by a module that cannot be
// replaced (anything but a failed staged build), and clears a replaceable
// failed entry as a side effect. Caller holds r.mu for writing.
func (r *Registry) takenLocked(name string) bool {
	if _, ok := r.mods[name]; ok {
		return true
	}
	if prev, ok := r.staging[name]; ok {
		if prev.State() != StateFailed {
			return true
		}
		delete(r.staging, name)
		prev.retire()
	}
	return false
}

// Add registers a Ready handle (the synchronous-upload path; async builds
// go through Reserve/Finish). It refuses duplicates — delete first;
// replacing a live module under concurrent queries would silently reset
// its counters — except that a failed staged build may be replaced, and
// enforces the bound, evicting when the policy allows.
func (r *Registry) Add(h *Handle) error {
	if h.State() != StateReady {
		return fmt.Errorf("module %q is %s, not ready (async builds use Reserve)", h.Name, h.State())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.takenLocked(h.Name) {
		return fmt.Errorf("module %q already registered", h.Name)
	}
	if err := r.makeRoomLocked(); err != nil {
		return err
	}
	r.mods[h.Name] = h
	return nil
}

// Reserve stakes an async build's name claim: the Building handle becomes
// visible to Get/List (so clients can poll its status) without consuming a
// module slot — only Finish, with a viable build in hand, competes for
// those. Staged builds are bounded by the same max so unparseable garbage
// cannot pile up placeholders without bound.
func (r *Registry) Reserve(h *Handle) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.takenLocked(h.Name) {
		return fmt.Errorf("module %q already registered", h.Name)
	}
	if r.max > 0 && len(r.staging) >= r.max {
		return fmt.Errorf("too many builds in flight (%d)", r.max)
	}
	r.staging[h.Name] = h
	return nil
}

// Finish completes an async build: a failure is recorded on the staged
// handle (it stays visible as "failed" until deleted or replaced); a
// success promotes the handle into the module table, evicting per policy —
// the module is viable now, so displacing the LRU is justified. A handle
// deleted while building is finished quietly and left to its pins.
func (r *Registry) Finish(h *Handle, buildErr error) {
	if buildErr != nil {
		h.fail(buildErr)
		return
	}
	r.mu.Lock()
	if r.staging[h.Name] != h {
		r.mu.Unlock()
		// Deleted (or replaced) mid-build: nobody can reach this handle
		// through the registry; publish Ready for the builder's pin and
		// let the pending retire reclaim it.
		h.finishReady()
		return
	}
	if err := r.makeRoomLocked(); err != nil {
		r.mu.Unlock()
		h.fail(err)
		return
	}
	delete(r.staging, h.Name)
	h.finishReady()
	r.mods[h.Name] = h
	r.mu.Unlock()
}

// makeRoomLocked enforces the module-table bound, evicting when allowed.
// Caller holds r.mu for writing.
func (r *Registry) makeRoomLocked() error {
	if r.max <= 0 || len(r.mods) < r.max {
		return nil
	}
	if !r.evictIdle {
		return fmt.Errorf("registry full (%d modules)", r.max)
	}
	var victim *Handle
	victimPinned := true
	for _, h := range r.mods {
		pinned := h.refs.Load() != 0
		switch {
		case victim == nil,
			victimPinned && !pinned,
			victimPinned == pinned && h.lastUse.Load() < victim.lastUse.Load():
			victim, victimPinned = h, pinned
		}
	}
	if victim == nil {
		return fmt.Errorf("registry full (%d modules)", r.max)
	}
	delete(r.mods, victim.Name)
	victim.retire()
	r.evictions.Add(1)
	return nil
}

// EvictOne force-evicts the least-recently-used ready module with no
// outstanding pins, regardless of the evictIdle upload policy — the memory
// -budget governor's lever for returning module memory under pressure.
// It reports the victim's name; ok is false when every module is pinned,
// building, or the table is empty. Unlike makeRoomLocked it never selects
// a pinned victim: a budget eviction exists to free memory now, and a
// pinned module's memory survives until its last Release.
func (r *Registry) EvictOne() (name string, ok bool) {
	r.mu.Lock()
	var victim *Handle
	for _, h := range r.mods {
		if h.refs.Load() != 0 || h.State() != StateReady {
			continue
		}
		if victim == nil || h.lastUse.Load() < victim.lastUse.Load() {
			victim = h
		}
	}
	if victim == nil {
		r.mu.Unlock()
		return "", false
	}
	delete(r.mods, victim.Name)
	r.mu.Unlock()
	victim.retire()
	return victim.Name, true
}

// lookupLocked finds name in either table. Caller holds r.mu (read).
//
// aliaslint:nopin — the handle is returned unpinned; callers that publish
// it (Get, Acquire) take the pin themselves.
func (r *Registry) lookupLocked(name string) (*Handle, bool) {
	if h, ok := r.mods[name]; ok {
		return h, true
	}
	h, ok := r.staging[name]
	return h, ok
}

// Acquire looks a module up on the query path: the handle is pinned and its
// recency refreshed (Acquire order is what the LRU eviction policy sees).
// The caller must Release the handle when the batch completes.
func (r *Registry) Acquire(name string) (*Handle, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.lookupLocked(name)
	if !ok {
		return nil, false
	}
	h.refs.Add(1)
	h.lastUse.Store(time.Now().UnixNano())
	return h, true
}

// Get looks a module up without refreshing recency — the status/info path,
// so polling a build's progress does not keep a module artificially hot.
// The handle is still pinned; the caller must Release it.
func (r *Registry) Get(name string) (*Handle, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.lookupLocked(name)
	if !ok {
		return nil, false
	}
	h.refs.Add(1)
	return h, true
}

// Remove drops a module or staged build, reporting whether it was present.
// The handle is retired: in-flight pins keep it alive until their Release.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	h, ok := r.lookupLocked(name)
	if ok {
		delete(r.mods, name)
		delete(r.staging, name)
	}
	r.mu.Unlock()
	if ok {
		h.retire()
	}
	return ok
}

// unreserve drops exactly h from staging — a no-op when the name has since
// been rebound. Cleanup paths use this so they never delete another
// client's reservation by name.
func (r *Registry) unreserve(h *Handle) {
	r.mu.Lock()
	ok := r.staging[h.Name] == h
	if ok {
		delete(r.staging, h.Name)
	}
	r.mu.Unlock()
	if ok {
		h.retire()
	}
}

// Len returns the visible module count (ready plus staged).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.mods) + len(r.staging)
}

// Evictions returns how many modules the bound has displaced.
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// Building counts staged builds still in flight — the readiness probe's
// "is any module mid-build" signal.
func (r *Registry) Building() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, h := range r.staging {
		if h.State() == StateBuilding {
			n++
		}
	}
	return n
}

// List returns every visible handle sorted by name, each pinned; the
// caller must Release every one. Like Get it does not refresh recency.
func (r *Registry) List() []*Handle {
	r.mu.RLock()
	out := make([]*Handle, 0, len(r.mods)+len(r.staging))
	for _, h := range r.mods {
		h.refs.Add(1)
		out = append(out, h)
	}
	for _, h := range r.staging {
		h.refs.Add(1)
		out = append(out, h)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// releaseAll is the List counterpart: release every pinned handle.
func releaseAll(hs []*Handle) {
	for _, h := range hs {
		h.Release()
	}
}
