package alias

import (
	"fmt"
	"sync"

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
// chain. It is immutable once computed; its details slice may be shared.
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
// Manager answered.
type MemberStats struct {
	Name string
	// NoAlias counts the queries this member proved (independently of its
	// position in the chain).
	NoAlias int64
	// FirstWins counts the queries where this member was the first prover
	// — the chain attribution an LLVM AAResults client sees.
	FirstWins int64
	// Details histograms the member's attribution strings (Explainer
	// members only): for rbaa these are the Fig. 14 reasons.
	Details map[string]int64
}

// ManagerStats is a point-in-time snapshot of a Manager's counters. Every
// Evaluate/Alias call computes its verdict and is counted once, so over a
// sweep that visits each pair once (the experiments driver) the counters
// are exact and deterministic regardless of how the sweep is scheduled.
type ManagerStats struct {
	Queries int64 // Evaluate/Alias calls
	NoAlias int64 // calls answered no-alias
	Members []MemberStats
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// Label is the Name() of the manager (e.g. "scev+basic+rbaa").
	Label string
}

// Manager chains an ordered list of alias analyses the way LLVM's AAResults
// does: a query is answered by the disjunction of the members' verdicts,
// evaluated on the canonicalized (unordered) pair. Unlike AAResults it
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
	// Stats merging may take it without contending with the hot path in
	// any meaningful way.
	mu       sync.Mutex // aliaslint:striped (O(1) critical sections, never nested)
	queries  int64
	noAliasN int64
	members  []memberCounters
}

type memberCounters struct {
	noAlias   int64
	firstWins int64
	details   map[string]int64
}

type pairKey struct{ p, q *ir.Value }

// canonical orders a pair so that (p,q) and (q,p) are evaluated
// identically. Value IDs are unique within a function (and module-wide for
// constants and globals, which carry distinct negative IDs), so ID order
// with the function name as tie-break is a strict order on any two
// distinct values.
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
	mg := &Manager{members: members, label: label}
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

// Alias implements Analysis: the disjunction of the members.
func (mg *Manager) Alias(p, q *ir.Value) Result {
	return mg.Evaluate(p, q).Result
}

// Evaluate answers one query with the full per-member verdict and counts
// it.
func (mg *Manager) Evaluate(p, q *ir.Value) Verdict {
	key := canonical(p, q)
	v := mg.compute(key)
	mg.count(key, &v)
	return v
}

// compute runs every member on the canonical pair. No Manager lock is
// held, so slow members never serialize unrelated queries.
func (mg *Manager) compute(key pairKey) Verdict {
	v := Verdict{Resolved: -1}
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

// count folds one verdict into the counter stripe of its pair.
func (mg *Manager) count(key pairKey, v *Verdict) {
	sh := &mg.stats[uint(key.p.ID*31^key.q.ID)%statShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.queries++
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

// Stats snapshots the counters.
func (mg *Manager) Stats() ManagerStats {
	var st ManagerStats
	st.Members = make([]MemberStats, len(mg.members))
	for i, m := range mg.members {
		st.Members[i] = MemberStats{Name: m.Name(), Details: map[string]int64{}}
	}
	for s := range mg.stats {
		sh := &mg.stats[s]
		sh.mu.Lock()
		st.Queries += sh.queries
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
	return st
}
