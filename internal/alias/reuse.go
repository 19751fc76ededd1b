package alias

import (
	"container/list"
	"crypto/sha256"
	"strings"
	"sync"

	"repro/internal/ir"
)

// Cross-module reuse of compiled function indexes.
//
// A CI-agent workload re-uploads a slowly-evolving module thousands of
// times; most functions are byte-identical between uploads. Building a
// FuncIndex is the expensive part of a module build (digesting four chain
// members plus the andersen solve), so identical functions should pay it
// once. Soundness makes that subtle: the chain is built per *module*
// (andersen is interprocedural, alloc sites and globals are numbered
// module-wide), so a function's compiled columns are only portable to
// another module when nothing in them can observe the module around the
// function. That is exactly the *isolated* case below: no calls out, no
// globals in, and no calls in from the rest of the module. For such a
// function every inter-procedural channel is closed — its digests are a
// pure function of its own printed text — and every comparison a FuncIndex
// ever performs is within one column (Root[i]==Root[j], a.Shape==b.Shape,
// bitset rows ANDed against sibling rows), so the donor's columns and
// value-number table can be shared as-is, zero-copy, with only the
// universe slice rebound to the new module's values.

// FuncKey is the content identity of one function: the sha256 of its
// deterministic printed text (ir.PrintFunc), which pins names, value order,
// and therefore the function-scoped value IDs the vnum table is built over.
type FuncKey [sha256.Size]byte

// KeyOf computes the content key of f.
func KeyOf(f *ir.Func) FuncKey {
	var b strings.Builder
	ir.PrintFunc(&b, f)
	return sha256.Sum256([]byte(b.String()))
}

// isolatedLocally reports whether f, viewed alone, is module-independent:
// no call or extern instructions (callees and unknown library effects reach
// module state) and no global operands (globals are module-scoped values
// with module-wide andersen sites). Constant operands are fine — they are
// module-interned but every column comparison involving them is
// within-column pointer equality.
func isolatedLocally(f *ir.Func) bool {
	for _, in := range f.Instrs() {
		if in.Op == ir.OpCall || in.Op == ir.OpExtern {
			return false
		}
		for _, a := range in.Args {
			if a != nil && a.Kind == ir.VGlobal {
				return false
			}
		}
	}
	return true
}

// calledFuncs collects every function that appears as an OpCall callee in
// m. A called function's parameters receive points-to flow from its
// callers, so its columns are not portable even if its body is clean.
func calledFuncs(m *ir.Module) map[*ir.Func]bool {
	called := map[*ir.Func]bool{}
	for _, f := range m.Funcs {
		for _, in := range f.Instrs() {
			if in.Op == ir.OpCall && in.Callee != nil {
				called[in.Callee] = true
			}
		}
	}
	return called
}

// cacheEntry is one donor FuncIndex plus the universe fingerprint a
// consumer must match before sharing it.
type cacheEntry struct {
	key     FuncKey
	fi      *FuncIndex
	members int
	// Universe fingerprint: the value IDs and names of the donor universe
	// plus the donor's dense-table size. Identical printed text implies an
	// identical fingerprint, so a mismatch means the key collided or the
	// printer changed — either way the entry must not be shared.
	ids       []int
	names     []string
	numValues int
	bytes     int64
	elem      *list.Element
}

// IndexCacheStats is a point-in-time snapshot of an IndexCache's counters.
type IndexCacheStats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// IndexCache is a bounded LRU of isolated-function indexes shared across
// module builds. All methods are safe for concurrent use.
//
// A cached entry retains its donor function's value graph (columns hold
// *ir.Value roots), so the accounted footprint is approximate; the byte
// bound keeps the retained set small and hot.
type IndexCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[FuncKey]*cacheEntry
	lru      *list.List // front = most recent; values are *cacheEntry

	hits      int64
	misses    int64
	evictions int64
}

// NewIndexCache returns a cache bounded to maxBytes of approximate column
// footprint (<= 0 picks a 32 MiB default).
func NewIndexCache(maxBytes int64) *IndexCache {
	if maxBytes <= 0 {
		maxBytes = 32 << 20
	}
	return &IndexCache{
		maxBytes: maxBytes,
		entries:  map[FuncKey]*cacheEntry{},
		lru:      list.New(),
	}
}

// fingerprintMatches verifies the consumer universe against the donor's.
func (e *cacheEntry) fingerprintMatches(universe []*ir.Value, numValues, members int) bool {
	if e.members != members || e.numValues != numValues || len(e.ids) != len(universe) {
		return false
	}
	for i, v := range universe {
		if v.ID != e.ids[i] || v.Name != e.names[i] {
			return false
		}
	}
	return true
}

// lookup returns an adapted FuncIndex for the given key and consumer
// universe, or nil on miss. The adapted index shares the donor's columns
// and value-number table zero-copy; only the universe slice is the
// consumer's own.
func (c *IndexCache) lookup(key FuncKey, universe []*ir.Value, numValues, members int) *FuncIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.fingerprintMatches(universe, numValues, members) {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return &FuncIndex{
		universe:      universe,
		vnum:          e.fi.vnum,
		cols:          e.fi.cols,
		rangeMember:   e.fi.rangeMember,
		sweepDisjoint: e.fi.sweepDisjoint,
		sweepGlobal:   e.fi.sweepGlobal,
		localRange:    e.fi.localRange,
	}
}

// insert stores a freshly built donor index under key, evicting LRU
// entries past the byte bound.
func (c *IndexCache) insert(key FuncKey, fi *FuncIndex, members int, numValues int) {
	ids := make([]int, len(fi.universe))
	names := make([]string, len(fi.universe))
	for i, v := range fi.universe {
		ids[i] = v.ID
		names[i] = v.Name
	}
	e := &cacheEntry{
		key: key, fi: fi, members: members,
		ids: ids, names: names, numValues: numValues,
		bytes: fi.approxBytes(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.lru.Remove(old.elem)
		c.bytes -= old.bytes
		delete(c.entries, key)
	}
	if e.bytes > c.maxBytes {
		return // never admit an entry that alone busts the bound
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += e.bytes
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.evictions++
	}
}

// SizeBytes reports the cache's approximate resident footprint, fed into
// the budget's accounted model.
func (c *IndexCache) SizeBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Snapshot returns the cache counters.
func (c *IndexCache) Snapshot() IndexCacheStats {
	if c == nil {
		return IndexCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return IndexCacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// BuildIndexCached is BuildIndex with cross-module reuse: isolated
// functions whose printed text matches a cached donor share the donor's
// compiled columns instead of re-digesting. Returns the index (nil exactly
// when BuildIndex would return nil) and how many functions were served
// from the cache. A nil cache degrades to plain BuildIndex.
func BuildIndexCached(mg *Manager, m *ir.Module, cache *IndexCache) (*Index, int) {
	for _, mem := range mg.members {
		switch mem.(type) {
		case RangeDigester, ClassDigester, SCEVDigester, SetDigester:
		default:
			return nil, 0
		}
	}
	var called map[*ir.Func]bool
	if cache != nil {
		called = calledFuncs(m)
	}
	reused := 0
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
		shareable := cache != nil && !called[f] && isolatedLocally(f)
		var key FuncKey
		if shareable {
			key = KeyOf(f)
			if fi := cache.lookup(key, universe, f.NumValues(), len(mg.members)); fi != nil {
				ix.funcs[f] = fi
				ix.memBytes += fi.approxBytes()
				reused++
				continue
			}
		}
		fi := buildFuncIndex(mg, f, universe)
		if shareable {
			cache.insert(key, fi, len(mg.members), f.NumValues())
		}
		ix.funcs[f] = fi
		ix.memBytes += fi.approxBytes()
	}
	return ix, reused
}
