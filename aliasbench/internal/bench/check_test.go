package bench

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"net/http"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/ir"
)

// serve uploads w's modules to a fresh in-process service and returns a
// function that answers one batch.
func serve(t *testing.T, w *Workload) func(b Batch, reversed bool) []byte {
	t.Helper()
	svc := NewService()
	t.Cleanup(svc.Close)
	c := NewClient(svc.Handler())
	for _, m := range w.Modules {
		if err := c.Upload(m); err != nil {
			t.Fatal(err)
		}
	}
	return func(b Batch, reversed bool) []byte {
		code, body, err := c.Query(w.AppendBody(nil, b, reversed))
		if err != nil || code != http.StatusOK {
			t.Fatalf("query: status %d, %v: %s", code, err, body)
		}
		return bytes.Clone(body)
	}
}

// wideWorkload is bigbatch's shape at a test size.
func wideWorkload(ptrs, batch int) *Workload {
	m := newModule(0, 0, func() *ir.Module { return benchgen.WideBatch("wide", ptrs) })
	return &Workload{Name: BigBatch, Modules: []*Module{m}, Batches: wrappedBatches(0, m.NumPairs, batch)}
}

// corpusWorkload is one Fig. 13 program as a corpus workload.
func corpusWorkload(c benchgen.Config) *Workload {
	m := newModule(0, 0, genFunc(c, 0))
	return &Workload{Name: Corpus, Modules: []*Module{m}, Batches: wrappedBatches(0, m.NumPairs, 128)}
}

// body is a decoded response that re-encodes like the service's.
type body struct {
	Module  string   `json:"module"`
	Results []Result `json:"results"`
	NoAlias int      `json:"noalias"`
}

// tamper rewrites one answer of a response, keeping its noalias count
// consistent, so that only the check under test can object.
func tamper(t *testing.T, resp []byte, f func(rs []Result) []Result) []byte {
	t.Helper()
	var b body
	if err := json.Unmarshal(resp, &b); err != nil {
		t.Fatal(err)
	}
	b.Results = f(b.Results)
	b.NoAlias = 0
	for _, r := range b.Results {
		if r.Result == noAlias {
			b.NoAlias++
		}
	}
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// find returns the first pair of w's batches under rule, as a batch index
// and a position within it.
func find(t *testing.T, w *Workload, v *Verifier, rule pairRule) (int, int) {
	t.Helper()
	for bi, b := range w.Batches {
		for k, r := range w.Refs(b) {
			if v.mods[b.Mod].rule(r) == rule {
				return bi, k
			}
		}
	}
	t.Skipf("no pair under rule %d", rule)
	return 0, 0
}

// feed checks every batch of w, substituting planted for batch bi's answer.
func feed(w *Workload, v *Verifier, answer func(Batch, bool) []byte, bi int, planted []byte) error {
	for i, b := range w.Batches {
		resp := answer(b, false)
		if i == bi {
			resp = planted
		}
		v.Batch(b, resp)
	}
	return v.Finish()
}

func mustFail(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("check passed; want a failure mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("check failed with %v; want a failure mentioning %q", err, want)
	}
}

func TestConstructionGives699MayAliasPairs(t *testing.T) {
	w, err := New(BigBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(w)
	if err != nil {
		t.Fatal(err)
	}
	may, no := 0, 0
	c := w.Modules[0].cursorAt(0)
	for i := 0; i < w.Modules[0].NumPairs; i++ {
		switch v.mods[0].rule(c.ref()) {
		case mustMayAlias:
			may++
		case mustNoAlias:
			no++
		}
		c.next()
	}
	if may != 699 {
		t.Errorf("construction requires may-alias on %d pairs, want 699", may)
	}
	if no == 0 {
		t.Error("construction requires no-alias on no pair")
	}
}

func TestConstructionCheckPassesAndCatchesFlippedMayAlias(t *testing.T) {
	w := wideWorkload(64, 256)
	answer := serve(t, w)
	v, err := NewVerifier(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(w, v, answer, -1, nil); err != nil {
		t.Fatalf("true answers fail the construction check: %v", err)
	}

	v, _ = NewVerifier(w)
	bi, k := find(t, w, v, mustMayAlias)
	planted := tamper(t, answer(w.Batches[bi], false), func(rs []Result) []Result {
		rs[k] = Result{Result: noAlias, Resolved: "rbaa", Provers: []string{"rbaa"}, Detail: "global-range"}
		return rs
	})
	mustFail(t, feed(w, v, answer, bi, planted), "the pointers meet")
}

func TestDroppedResultFails(t *testing.T) {
	w := wideWorkload(64, 256)
	answer := serve(t, w)
	v, _ := NewVerifier(w)
	planted := tamper(t, answer(w.Batches[0], false), func(rs []Result) []Result { return rs[:len(rs)-1] })
	mustFail(t, feed(w, v, answer, 0, planted), "results for")
}

// collidingCorpus returns a corpus program whose enumeration holds pairs
// that collided in one block instance and pairs that collided only at two
// different moments.
func collidingCorpus(t *testing.T) (*Workload, *Verifier) {
	t.Helper()
	for _, c := range benchgen.Fig13Configs() {
		w := corpusWorkload(c)
		v, err := NewVerifier(w)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[pairRule]bool{}
		for _, b := range w.Batches {
			for _, r := range w.Refs(b) {
				seen[v.mods[0].rule(r)] = true
			}
		}
		if seen[mustMayAlias] && seen[notAbsolute] {
			return w, v
		}
	}
	t.Skip("no corpus program has both kinds of collision in its enumeration")
	return nil, nil
}

func TestCollidingPairAnsweredNoAliasFails(t *testing.T) {
	w, v := collidingCorpus(t)
	answer := serve(t, w)
	if err := feed(w, v, answer, -1, nil); err != nil {
		t.Fatalf("true answers fail the soundness and floor checks: %v", err)
	}
	for _, rule := range []pairRule{mustMayAlias, notAbsolute} {
		v, _ := NewVerifier(w)
		bi, k := find(t, w, v, rule)
		planted := tamper(t, answer(w.Batches[bi], false), func(rs []Result) []Result {
			rs[k] = Result{Result: noAlias, Resolved: "basic", Provers: []string{"basic"}}
			return rs
		})
		err := feed(w, v, answer, bi, planted)
		if rule == mustMayAlias {
			mustFail(t, err, "the pointers meet")
		} else {
			mustFail(t, err, "collided concretely, yet basic")
		}
	}
}

func TestNoAliasCountBelowFloorFails(t *testing.T) {
	if err := checkFloor("m", 41, 42, "r+b proves 42"); err == nil {
		t.Error("a count one below the floor passes")
	}
	if err := checkFloor("m", 42, 42, "r+b proves 42"); err != nil {
		t.Errorf("a count at the floor fails: %v", err)
	}

	// The same through a whole pass: pin the floor to what the service
	// proves, then take one no-alias answer away.
	w, _ := collidingCorpus(t)
	answer := serve(t, w)
	v, _ := NewVerifier(w)
	if err := feed(w, v, answer, -1, nil); err != nil {
		t.Fatal(err)
	}
	proved := 0
	for _, id := range v.mods[0].first {
		if v.res[id-1].Result == noAlias {
			proved++
		}
	}
	v, _ = NewVerifier(w)
	v.mods[0].floor = proved
	bi, k := -1, -1
	for i, b := range w.Batches {
		var rs body
		if err := json.Unmarshal(answer(b, false), &rs); err != nil {
			t.Fatal(err)
		}
		for j, r := range rs.Results {
			// A pair's first answer counts; batches do not overlap before
			// the last one wraps, so the first batch holding a no-alias
			// answer that is not under a soundness rule will do.
			if r.Result == noAlias && v.mods[0].rule(w.Refs(b)[j]) == unchecked {
				bi, k = i, j
				break
			}
		}
		if bi >= 0 {
			break
		}
	}
	if bi < 0 {
		t.Skip("no no-alias answer to take away")
	}
	planted := tamper(t, answer(w.Batches[bi], false), func(rs []Result) []Result {
		rs[k] = Result{Result: mayAlias}
		return rs
	})
	mustFail(t, feed(w, v, answer, bi, planted), "below the floor")
}

func TestReversedPairAnsweredDifferentlyFails(t *testing.T) {
	w, v := collidingCorpus(t)
	answer := serve(t, w)
	for _, b := range w.Batches {
		v.Batch(b, answer(b, false))
		v.Reversed(b, answer(b, true))
	}
	if err := v.Finish(); err != nil {
		t.Fatalf("true answers fail the reversal check: %v", err)
	}

	v, _ = NewVerifier(w)
	b := w.Batches[0]
	v.Batch(b, answer(b, false))
	planted := tamper(t, answer(b, true), func(rs []Result) []Result {
		if rs[0].Result == noAlias {
			rs[0] = Result{Result: mayAlias}
		} else {
			rs[0] = Result{Result: noAlias, Resolved: "scev", Provers: []string{"scev"}}
		}
		return rs
	})
	v.Reversed(b, planted)
	mustFail(t, v.Finish(), "reversed")
}

func TestTimedAnswerDifferingFromFirstIsCounted(t *testing.T) {
	r := &Run{seed: maphash.MakeSeed(), hashes: make([]uint64, 2), seen: make([]bool, 2)}
	r.record(0, []byte(`{"a":1}`))
	r.record(0, []byte(`{"a":1}`))
	r.record(1, []byte(`{"a":1}`))
	if r.mismatches != 0 {
		t.Fatalf("equal answers counted as %d mismatches", r.mismatches)
	}
	r.record(0, []byte(`{"a":2}`))
	if r.mismatches != 1 {
		t.Fatalf("a differing answer counted as %d mismatches, want 1", r.mismatches)
	}
}
