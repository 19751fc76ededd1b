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

// TestManagerCanonicalization: (p,q) and (q,p) get one verdict, and the
// attribution counters decompose the chain's no-alias total.
func TestManagerCanonicalization(t *testing.T) {
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
// double-counting bug: the documented semantics are one count per
// computation — exactly workers×rounds, never more or less. Run under
// -race this also guards the counter stripes themselves.
func TestManagerOnePairHammerNoCache(t *testing.T) {
	m := progs.MessageBuffer()
	qs := alias.Queries(m)
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
	q := qs[0]
	want := newTestManager(m, alias.ManagerOptions{}).Evaluate(q.P, q.Q)

	mgr := newTestManager(m, alias.ManagerOptions{})
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

// TestNewManagerAllocatesLittle pins a manager's empty footprint: its
// counter stripes, nothing sized by the pairs it will answer.
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
// the Manager's own counters.
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
