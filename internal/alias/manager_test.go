package alias_test

import (
	"sync"
	"testing"

	"repro/internal/alias"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/progs"
)

func newTestManager(m *ir.Module, opts alias.ManagerOptions) *alias.Manager {
	return alias.NewManager(opts,
		scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}))
}

// sameVerdict compares two verdicts over a 3-member chain (Verdict holds a
// slice, so == does not apply).
func sameVerdict(a, b alias.Verdict) bool {
	if a.Result != b.Result || a.Resolved != b.Resolved {
		return false
	}
	for i := 0; i < 3; i++ {
		if a.MemberNoAlias(i) != b.MemberNoAlias(i) || a.Detail(i) != b.Detail(i) {
			return false
		}
	}
	return true
}

// TestManagerMatchesMembers: the chained verdicts must coincide with asking
// each member directly, and the combined Result with their disjunction.
func TestManagerMatchesMembers(t *testing.T) {
	for _, m := range []*ir.Module{
		progs.MessageBuffer(), progs.Accelerate(), progs.Fig10(),
		progs.TwoBuffers(), progs.StructFields(),
	} {
		s := scevaa.New(m)
		b := basicaa.New(m)
		r := rbaa.New(m, pointer.Options{})
		mgr := alias.NewManager(alias.ManagerOptions{}, s, b, r)
		for _, q := range alias.Queries(m) {
			v := mgr.Evaluate(q.P, q.Q)
			want := [3]alias.Result{s.Alias(q.P, q.Q), b.Alias(q.P, q.Q), r.Alias(q.P, q.Q)}
			any := false
			for i, w := range want {
				if got := v.MemberNoAlias(i); got != (w == alias.NoAlias) {
					t.Fatalf("%s: member %d verdict mismatch for %s,%s: manager=%v member=%s",
						m.Name, i, q.P.Name, q.Q.Name, got, w)
				}
				any = any || w == alias.NoAlias
			}
			if (v.Result == alias.NoAlias) != any {
				t.Fatalf("%s: combined result %s but members %v", m.Name, v.Result, want)
			}
			if rNo := v.MemberNoAlias(2); rNo != (v.Detail(2) != "") {
				t.Fatalf("%s: rbaa detail %q inconsistent with verdict %v",
					m.Name, v.Detail(2), rNo)
			}
		}
	}
}

// TestManagerCanonicalizationAndCache: (p,q) and (q,p) share one cache
// entry, and repeats are served from the cache.
func TestManagerCanonicalizationAndCache(t *testing.T) {
	m := progs.MessageBuffer()
	mgr := newTestManager(m, alias.ManagerOptions{})
	qs := alias.Queries(m)
	for _, q := range qs {
		fwd := mgr.Evaluate(q.P, q.Q)
		rev := mgr.Evaluate(q.Q, q.P)
		if !sameVerdict(fwd, rev) {
			t.Fatalf("asymmetric verdict for %s,%s", q.P.Name, q.Q.Name)
		}
	}
	st := mgr.Stats()
	if st.Queries != int64(2*len(qs)) {
		t.Errorf("queries = %d, want %d", st.Queries, 2*len(qs))
	}
	if st.Computed != int64(len(qs)) {
		t.Errorf("computed = %d, want %d (reverse queries must hit the cache)",
			st.Computed, len(qs))
	}
	if st.CacheHits != int64(len(qs)) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, len(qs))
	}
	// The attribution histogram must decompose rbaa's no-alias count.
	rb := st.Members[2]
	var detailSum int64
	for _, n := range rb.Details {
		detailSum += n
	}
	if detailSum != rb.NoAlias {
		t.Errorf("rbaa details sum %d != rbaa no-alias %d", detailSum, rb.NoAlias)
	}
	// First-wins attribution sums to the chain's no-alias total.
	var fw int64
	for _, ms := range st.Members {
		fw += ms.FirstWins
	}
	if fw != st.NoAlias {
		t.Errorf("first-wins sum %d != chain no-alias %d", fw, st.NoAlias)
	}
}

// TestManagerCacheLimit: a negative limit disables memoization entirely and
// every repeat is recomputed; counters then tally per computation.
func TestManagerCacheLimit(t *testing.T) {
	m := progs.TwoBuffers()
	mgr := newTestManager(m, alias.ManagerOptions{CacheLimit: -1})
	qs := alias.Queries(m)
	for i := 0; i < 3; i++ {
		for _, q := range qs {
			mgr.Evaluate(q.P, q.Q)
		}
	}
	st := mgr.Stats()
	if st.CacheHits != 0 {
		t.Errorf("cache hits = %d with caching disabled", st.CacheHits)
	}
	if st.Computed != int64(3*len(qs)) {
		t.Errorf("computed = %d, want %d", st.Computed, 3*len(qs))
	}
}

// TestManagerComposes: a Manager is itself an Analysis and can be chained
// inside another Manager.
func TestManagerComposes(t *testing.T) {
	m := progs.StructFields()
	inner := newTestManager(m, alias.ManagerOptions{Label: "inner"})
	outer := alias.NewManager(alias.ManagerOptions{Label: "outer"}, inner)
	for _, q := range alias.Queries(m) {
		if outer.Alias(q.P, q.Q) != inner.Evaluate(q.P, q.Q).Result {
			t.Fatalf("composed manager diverges on %s,%s", q.P.Name, q.Q.Name)
		}
	}
	if outer.Name() != "outer" || inner.Name() != "inner" {
		t.Errorf("labels lost: %q, %q", outer.Name(), inner.Name())
	}
}

// TestManagerOnePairHammerNoCache is the regression test for the
// double-counting bug: with caching disabled there is no LoadOrStore winner
// to elect, so the documented semantics are one count per computation —
// exactly workers×rounds, never more (the old code could also inflate past
// a full cache, where racing goroutines each counted). Run under -race this
// also guards the counter stripes themselves.
func TestManagerOnePairHammerNoCache(t *testing.T) {
	m := progs.MessageBuffer()
	qs := alias.Queries(m)
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
	q := qs[0]
	want := newTestManager(m, alias.ManagerOptions{}).Evaluate(q.P, q.Q)

	mgr := newTestManager(m, alias.ManagerOptions{CacheLimit: -1})
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mgr.Evaluate(q.P, q.Q)
			}
		}()
	}
	wg.Wait()

	st := mgr.Stats()
	const total = workers * rounds
	if st.Queries != total {
		t.Errorf("queries = %d, want %d", st.Queries, total)
	}
	if st.CacheHits != 0 {
		t.Errorf("cache hits = %d with caching disabled", st.CacheHits)
	}
	if st.Computed != total {
		t.Errorf("computed = %d, want exactly %d (one per computation)", st.Computed, total)
	}
	wantNoAlias := int64(0)
	if want.Result == alias.NoAlias {
		wantNoAlias = total
	}
	if st.NoAlias != wantNoAlias {
		t.Errorf("noalias = %d, want %d", st.NoAlias, wantNoAlias)
	}
	for i, ms := range st.Members {
		wantMember := int64(0)
		if want.MemberNoAlias(i) {
			wantMember = total
		}
		if ms.NoAlias != wantMember {
			t.Errorf("member %d noalias = %d, want %d (counters inflated or lost)",
				i, ms.NoAlias, wantMember)
		}
	}
}

// TestManagerWinnerOnlyCountPastLimit pins the other half of the fix: with
// a small LRU the cache no longer freezes at its limit, so a pair hammered
// concurrently after a cold flood is computed and counted exactly once —
// under the old frozen cache every racing recomputation was counted.
func TestManagerWinnerOnlyCountPastLimit(t *testing.T) {
	m := progs.MessageBuffer()
	qs := alias.Queries(m)
	const limit = 4
	if len(qs) < limit+4 {
		t.Fatalf("need more than %d distinct pairs, have %d", limit+4, len(qs))
	}
	mgr := newTestManager(m, alias.ManagerOptions{CacheLimit: limit, CacheShards: 1})

	// Cold flood: more distinct pairs than the cache holds. Under the old
	// policy this froze the cache on the first `limit` pairs.
	for _, q := range qs[1:] {
		mgr.Evaluate(q.P, q.Q)
	}
	before := mgr.Stats()
	if before.Cached > limit {
		t.Fatalf("cached = %d beyond the %d-entry limit", before.Cached, limit)
	}
	if before.Evictions == 0 {
		t.Fatal("flood past the limit recorded no evictions")
	}

	// Hot phase: many goroutines race on one fresh pair. Exactly one
	// computation may be counted; everyone else must resolve as a hit.
	hot := qs[0]
	const workers = 8
	const rounds = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mgr.Evaluate(hot.P, hot.Q)
			}
		}()
	}
	wg.Wait()

	after := mgr.Stats()
	if d := after.Computed - before.Computed; d != 1 {
		t.Errorf("hot pair counted %d times, want exactly 1 (winner only)", d)
	}
	if d := after.Queries - before.Queries; d != workers*rounds {
		t.Errorf("queries grew by %d, want %d", d, workers*rounds)
	}
	if after.CacheHits+after.Computed != after.Queries {
		t.Errorf("cache_hits %d + computed %d != queries %d",
			after.CacheHits, after.Computed, after.Queries)
	}
	if after.Cached > limit {
		t.Errorf("cached = %d beyond the %d-entry limit", after.Cached, limit)
	}
}

// TestNewManagerAllocatesLittle pins the memo's empty footprint: a manager
// with default options sizes nothing for entries it has not cached yet, so
// a module whose pairs the index answers keeps no empty memo buckets.
func TestNewManagerAllocatesLittle(t *testing.T) {
	m := progs.MessageBuffer()
	members := []alias.Analysis{scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{})}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alias.NewManager(alias.ManagerOptions{}, members...)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Errorf("NewManager allocated %d bytes, want under 64 KiB", got)
	}
}

// TestManagerConcurrentHammer locks in the concurrent-query contract: many
// goroutines fire the full query set (in both orientations and shifted
// orders) at one Manager while others snapshot Stats. Run under -race this
// guards the read-only query paths of scevaa, basicaa and rbaa as well as
// the Manager's own cache and counters.
func TestManagerConcurrentHammer(t *testing.T) {
	cfg := benchgen.Fig13Configs()[0] // cfrac: mid-size, every idiom
	m := benchgen.Generate(cfg)
	mgr := newTestManager(m, alias.ManagerOptions{})
	qs := alias.Queries(m)
	if len(qs) == 0 {
		t.Fatal("no queries")
	}

	// Reference verdicts, computed single-threaded on a twin manager.
	ref := newTestManager(m, alias.ManagerOptions{})
	want := make([]alias.Verdict, len(qs))
	for i, q := range qs {
		want[i] = ref.Evaluate(q.P, q.Q)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range qs {
				j := (i + w*len(qs)/workers) % len(qs)
				q := qs[j]
				var got alias.Verdict
				if w%2 == 0 {
					got = mgr.Evaluate(q.P, q.Q)
				} else {
					got = mgr.Evaluate(q.Q, q.P)
				}
				if !sameVerdict(got, want[j]) {
					t.Errorf("worker %d: verdict mismatch on query %d", w, j)
					return
				}
			}
		}()
	}
	// Concurrent stats snapshots must not race with the sweeps.
	stop := make(chan struct{})
	var snap sync.WaitGroup
	snap.Add(1)
	go func() {
		defer snap.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = mgr.Stats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snap.Wait()

	st := mgr.Stats()
	// Every unique pair is computed at least once; with the cache far below
	// its limit, duplicated computation can only come from races lost at
	// LoadOrStore, which still count each pair exactly once.
	if st.Computed != int64(len(qs)) {
		t.Errorf("computed = %d, want %d unique pairs", st.Computed, len(qs))
	}
	if st.Queries != int64(workers*len(qs)) {
		t.Errorf("queries = %d, want %d", st.Queries, workers*len(qs))
	}
	rb := st.Members[2]
	var detailSum int64
	for _, n := range rb.Details {
		detailSum += n
	}
	if detailSum != rb.NoAlias {
		t.Errorf("rbaa details sum %d != rbaa no-alias %d", detailSum, rb.NoAlias)
	}
}
