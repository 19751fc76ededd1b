package alias

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/ir"
)

// Explainer is optionally implemented by member analyses that attribute
// their no-alias verdicts to the internal test that produced them — rbaa's
// Fig. 14 reasons ("disjoint-support", "global-range", "local-range"). The
// detail string must be "" for may-alias answers.
type Explainer interface {
	Analysis
	Explain(p, q *ir.Value) (Result, string)
}

// Verdict is the outcome of evaluating one query against every member of a
// Manager. It is immutable once computed and may be shared by the cache.
type Verdict struct {
	// Result is the chained answer: NoAlias if any member proved it
	// (sound, because every member is).
	Result Result
	// Resolved is the index of the first member that proved NoAlias — the
	// LLVM-AAResults-style chain attribution — or -1 for MayAlias.
	Resolved int
	// mask has bit i set when member i independently proved NoAlias.
	mask uint64
	// details[i] is member i's attribution string ("" when the member
	// answered may-alias or does not implement Explainer). nil when no
	// member is an Explainer.
	details []string
}

// MemberNoAlias reports whether member i independently proved NoAlias.
func (v Verdict) MemberNoAlias(i int) bool { return v.mask&(1<<uint(i)) != 0 }

// Detail returns member i's attribution string, if any.
func (v Verdict) Detail(i int) string {
	if i < len(v.details) {
		return v.details[i]
	}
	return ""
}

// MemberStats aggregates one member's contribution across every query a
// Manager computed.
type MemberStats struct {
	Name string
	// NoAlias counts the distinct computed queries this member proved
	// (independently of its position in the chain).
	NoAlias int64
	// FirstWins counts the computed queries where this member was the
	// first prover — the chain attribution an LLVM AAResults client sees.
	FirstWins int64
	// Details histograms the member's attribution strings (Explainer
	// members only): for rbaa these are the Fig. 14 reasons.
	Details map[string]int64
}

// ManagerStats is a point-in-time snapshot of a Manager's counters.
//
// Per-member counters tally *counted* computations, not cache replays. With
// caching enabled a computation is counted exactly when its verdict is the
// one installed in the memo cache: concurrent goroutines racing on the same
// pair agree on a single winner, and the losers are tallied as cache hits —
// so Queries == CacheHits + Computed always holds, and over a sweep that
// visits each pair once (the experiments driver) the counters are exact and
// deterministic regardless of how the sweep is scheduled. A pair recomputed
// after LRU eviction counts again (it is a genuine recomputation). With
// caching disabled (CacheLimit < 0) every computation is counted.
type ManagerStats struct {
	Queries   int64 // Evaluate/Alias calls, cache hits included
	CacheHits int64
	Computed  int64 // counted computations (see above)
	NoAlias   int64 // counted computations with a no-alias verdict
	// Cached and Evictions describe the memo cache: live entries (bounded
	// by CacheLimit at every instant) and entries displaced under churn.
	Cached int64
	// Misses counts the lookups that had to compute, winner-only like
	// Computed: a goroutine that loses an install race tallies as a cache
	// hit, not a miss. With the memo on Misses equals Computed, so
	// Queries == CacheHits + Misses holds under concurrency; 0 with the
	// memo off.
	Misses    int64
	Evictions int64
	Members   []MemberStats
}

// DefaultCacheLimit bounds the number of memoized verdicts per Manager so
// that whole-suite sweeps (millions of unique pairs) cannot exhaust memory.
// The memo is a bounded LRU: once full, cold entries are evicted to admit
// new ones, so a hot working set stays cached under churn.
const DefaultCacheLimit = 1 << 20

// DefaultCacheShards is the memo cache's shard count when ManagerOptions
// leaves it zero: enough mutexes that parallel sweep workers rarely collide,
// few enough that per-shard LRU lists stay meaningful at small limits.
const DefaultCacheShards = 16

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// Label is the Name() of the manager (e.g. "scev+basic+rbaa").
	Label string
	// CacheLimit overrides DefaultCacheLimit; negative disables caching.
	CacheLimit int
	// CacheShards overrides DefaultCacheShards (clamped so every shard can
	// hold at least one entry).
	CacheShards int
}

// Manager chains an ordered list of alias analyses the way LLVM's AAResults
// does: a query is answered by the disjunction of the members' verdicts,
// memoized under the canonicalized (unordered) pair. Unlike AAResults it
// evaluates every member rather than stopping at the first no-alias, so the
// per-member precision counters of Fig. 13 and the attribution histogram of
// Fig. 14 fall out of one sweep; Verdict.Resolved still records the
// first-wins chain attribution.
//
// A Manager is safe for concurrent use by multiple goroutines provided its
// members answer queries without mutating shared state — true of scevaa,
// basicaa and rbaa after construction (see the concurrency notes on
// pointer.Analyze). Members are never invoked while a Manager lock is held.
type Manager struct {
	members []Analysis
	label   string

	// cache memoizes verdicts under the canonicalized pair. It is a
	// sharded bounded LRU, so the limit is enforced atomically (insert and
	// evict under one shard lock) and hot pairs survive churn past the
	// limit. nil when caching is disabled.
	cache *cache.Cache[pairKey, *Verdict]

	// index, when attached, short-circuits compute on cache misses with the
	// compiled per-function columns (identical verdicts, a fraction of the
	// cost). Set once before the manager is shared; nil means chain-only.
	index *Index

	queries   atomic.Int64
	cacheHits atomic.Int64

	// Counters are striped across shards keyed by the query pair so that
	// parallel sweep workers do not serialize on one mutex; Stats merges
	// the stripes (sums are order-independent, so totals stay
	// deterministic for unique-pair sweeps).
	stats [statShards]statShard
}

const statShards = 16

type statShard struct {
	// The stripe lock is held O(1) on the query path (one counter bump)
	// and O(members) at stats time, never nested — bounded by design, so
	// scrape-time Stats merging may take it without contending with the
	// hot path in any meaningful way.
	mu       sync.Mutex // aliaslint:striped (O(1) critical sections, never nested)
	computed int64      // distinct computed queries
	noAliasN int64      // computed no-alias queries
	members  []memberCounters
}

type memberCounters struct {
	noAlias   int64
	firstWins int64
	details   map[string]int64
}

type pairKey struct{ p, q *ir.Value }

// canonical orders a pair so that (p,q) and (q,p) share one cache entry.
// Value IDs are unique within a function (and module-wide for constants and
// globals, which carry distinct negative IDs), so ID order with the function
// name as tie-break is a strict order on any two distinct values.
func canonical(p, q *ir.Value) pairKey {
	if less(q, p) {
		p, q = q, p
	}
	return pairKey{p, q}
}

func less(a, b *ir.Value) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return funcName(a) < funcName(b)
}

func funcName(v *ir.Value) string {
	if v.Func != nil {
		return v.Func.Name
	}
	return ""
}

// hashPair spreads canonicalized pairs across the memo cache's shards.
// Value IDs repeat across functions, so collisions only skew shard load,
// never correctness; Fibonacci mixing keeps sequential IDs apart.
func hashPair(k pairKey) uint64 {
	h := uint64(uint32(k.p.ID))*0x9E3779B97F4A7C15 ^ uint64(uint32(k.q.ID))
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// NewManager builds a manager over the given member order. Queries ask the
// members in that order; Verdict.Resolved and the FirstWins counters refer
// to it. At most 64 members are supported.
func NewManager(opts ManagerOptions, members ...Analysis) *Manager {
	if len(members) == 0 {
		panic("alias.NewManager: no members")
	}
	if len(members) > 64 {
		panic(fmt.Sprintf("alias.NewManager: %d members exceeds 64", len(members)))
	}
	label := opts.Label
	if label == "" {
		for i, m := range members {
			if i > 0 {
				label += "+"
			}
			label += m.Name()
		}
	}
	limit := opts.CacheLimit
	if limit == 0 {
		limit = DefaultCacheLimit
	}
	mg := &Manager{members: members, label: label}
	if limit > 0 {
		shards := opts.CacheShards
		if shards == 0 {
			shards = DefaultCacheShards
		}
		mg.cache = cache.New[pairKey, *Verdict](limit, shards, hashPair)
	}
	for s := range mg.stats {
		mg.stats[s].members = make([]memberCounters, len(members))
		for i := range mg.stats[s].members {
			mg.stats[s].members[i].details = map[string]int64{}
		}
	}
	return mg
}

// Name implements Analysis, so managers compose (a Manager can be a member
// of another Manager).
func (mg *Manager) Name() string { return mg.label }

// NumMembers returns the length of the chain.
func (mg *Manager) NumMembers() int { return len(mg.members) }

// MemberName returns the Name() of member i.
func (mg *Manager) MemberName(i int) string { return mg.members[i].Name() }

// AttachIndex installs a compiled index (BuildIndex over this manager's
// chain) as the compute fast path: cache misses whose pair the index covers
// skip the member walk entirely. The verdicts are identical by construction
// (see Index), so counters, caching and attribution are unaffected. Must be
// called before the manager is shared between goroutines.
func (mg *Manager) AttachIndex(ix *Index) { mg.index = ix }

// ResizeCache rebounds the verdict memo at runtime, evicting LRU entries
// immediately when shrinking — the service's memory-budget governor
// shrinks the memo under pressure and restores the configured bound on
// recovery. Verdicts are unaffected (a smaller memo only recomputes more).
// No-op returning false when caching is disabled or the bound is
// unchanged. Safe for concurrent use with queries.
func (mg *Manager) ResizeCache(limit int) bool {
	if mg.cache == nil || limit < 1 {
		return false
	}
	return mg.cache.Resize(limit)
}

// CacheCap reports the memo's current entry bound (0 with caching
// disabled) — the governor's view of whether a module is running shrunk.
func (mg *Manager) CacheCap() int {
	if mg.cache == nil {
		return 0
	}
	return mg.cache.Cap()
}

// Alias implements Analysis: the memoized disjunction of the members.
func (mg *Manager) Alias(p, q *ir.Value) Result {
	return mg.Evaluate(p, q).Result
}

// Evaluate answers one query with the full per-member verdict, serving it
// from the cache when the canonicalized pair is memoized.
//
// Counting is winner-only: when goroutines race on an uncached pair each
// computes, but only the verdict installed in the cache is folded into the
// counters — the losers adopt the winner's verdict and tally as cache hits.
// This keeps Computed at "distinct computed queries" under concurrency
// (pre-LRU, every racer past the cache limit counted, inflating Computed,
// NoAlias and the per-member counters). With caching disabled there is no
// winner to elect and every computation counts.
func (mg *Manager) Evaluate(p, q *ir.Value) Verdict {
	mg.queries.Add(1)
	key := canonical(p, q)
	if mg.cache != nil {
		if v, ok := mg.cache.Get(key); ok {
			mg.cacheHits.Add(1)
			return *v
		}
	}
	v := mg.compute(key)
	if mg.cache != nil {
		if prev, added := mg.cache.GetOrAdd(key, v); !added {
			// A racing goroutine installed the same pair first; its entry
			// is the one whose attribution was counted.
			mg.cacheHits.Add(1)
			return *prev
		}
	}
	mg.count(key, v)
	return *v
}

// compute runs every member on the canonical pair — through the compiled
// index when one is attached and conclusive for the pair. No Manager lock is
// held, so slow members never serialize unrelated queries.
func (mg *Manager) compute(key pairKey) *Verdict {
	if mg.index != nil {
		if iv, ok := mg.index.Evaluate(key.p, key.q); ok {
			return &iv
		}
	}
	v := &Verdict{Resolved: -1}
	for i, m := range mg.members {
		var res Result
		var detail string
		if ex, ok := m.(Explainer); ok {
			res, detail = ex.Explain(key.p, key.q)
		} else {
			res = m.Alias(key.p, key.q)
		}
		if res == NoAlias {
			v.mask |= 1 << uint(i)
			if v.Resolved < 0 {
				v.Resolved = i
				v.Result = NoAlias
			}
		}
		if detail != "" {
			if v.details == nil {
				v.details = make([]string, len(mg.members))
			}
			v.details[i] = detail
		}
	}
	return v
}

// count folds one computed verdict into the counter stripe of its pair.
func (mg *Manager) count(key pairKey, v *Verdict) {
	sh := &mg.stats[uint(key.p.ID*31^key.q.ID)%statShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.computed++
	if v.Result == NoAlias {
		sh.noAliasN++
	}
	for i := range mg.members {
		if v.MemberNoAlias(i) {
			sh.members[i].noAlias++
		}
		if d := v.Detail(i); d != "" {
			sh.members[i].details[d]++
		}
	}
	if v.Resolved >= 0 {
		sh.members[v.Resolved].firstWins++
	}
}

// Stats snapshots the counters. Per-member numbers cover computed queries
// only (see ManagerStats); Queries and CacheHits cover every call.
func (mg *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Queries:   mg.queries.Load(),
		CacheHits: mg.cacheHits.Load(),
	}
	st.Members = make([]MemberStats, len(mg.members))
	for i, m := range mg.members {
		st.Members[i] = MemberStats{Name: m.Name(), Details: map[string]int64{}}
	}
	for s := range mg.stats {
		sh := &mg.stats[s]
		sh.mu.Lock()
		st.Computed += sh.computed
		st.NoAlias += sh.noAliasN
		for i := range mg.members {
			st.Members[i].NoAlias += sh.members[i].noAlias
			st.Members[i].FirstWins += sh.members[i].firstWins
			for k, n := range sh.members[i].details {
				st.Members[i].Details[k] += n
			}
		}
		sh.mu.Unlock()
	}
	if mg.cache != nil {
		cs := mg.cache.Stats()
		st.Cached = int64(cs.Len)
		st.Evictions = cs.Evictions
		// Not cs.Misses: the cache also counts every racer that lost the
		// install to a concurrent winner. The winner-only count is the one
		// that reconciles with Queries and CacheHits.
		st.Misses = st.Computed
	}
	return st
}
