package bench

import (
	"encoding/json"
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
	"repro/internal/service"
)

// At the default seed the client enumerates pairs exactly as alias.Queries
// does; any other seed enumerates the same set in another order.
func TestEnumerationMatchesQueries(t *testing.T) {
	c := benchgen.Fig13Configs()[3]
	for _, seed := range []int64{0, 7} {
		m := newModule(0, seed, genFunc(c, 0))
		want := map[[3]string]int{}
		var order [][3]string
		for _, q := range alias.Queries(m.Gen()) {
			k := [3]string{q.P.Func.Name, q.P.Name, q.Q.Name}
			want[k]++
			order = append(order, k)
		}
		if m.NumPairs != len(order) {
			t.Fatalf("seed %d: %d pairs, alias.Queries has %d", seed, m.NumPairs, len(order))
		}
		cur := m.cursorAt(0)
		for i := 0; i < m.NumPairs; i++ {
			r := cur.ref()
			f := m.Funcs[r.Func]
			k := [3]string{f.Name, f.Ptrs[r.A], f.Ptrs[r.B]}
			if seed == 0 && k != order[i] {
				t.Fatalf("pair %d is %v, alias.Queries has %v", i, k, order[i])
			}
			if seed != 0 {
				if want[k] == 0 {
					k = [3]string{k[0], k[2], k[1]}
				}
				if want[k] == 0 {
					t.Fatalf("seed %d: pair %v is not in alias.Queries", seed, k)
				}
				want[k]--
			}
			cur.next()
		}
	}
}

// Every workload's batches, one round of them, cover every pair of every
// module, and cursorAt agrees with walking the enumeration.
func TestBatchesCoverEveryPair(t *testing.T) {
	for _, name := range []string{BigBatch, Corpus} {
		w, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]map[PairRef]bool, len(w.Modules))
		for i := range seen {
			seen[i] = map[PairRef]bool{}
		}
		for _, b := range w.Batches {
			for _, r := range w.Refs(b) {
				seen[b.Mod][r] = true
			}
		}
		for i, m := range w.Modules {
			if len(seen[i]) != m.NumPairs {
				t.Errorf("%s/%s: batches cover %d of %d pairs", name, m.Name, len(seen[i]), m.NumPairs)
			}
		}
	}
}

func TestBodyIsTheQueryRequest(t *testing.T) {
	w, err := New(Corpus, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Batches[len(w.Batches)-1]
	for _, reversed := range []bool{false, true} {
		var req service.QueryRequest
		if err := json.Unmarshal(w.AppendBody(nil, b, reversed), &req); err != nil {
			t.Fatal(err)
		}
		mod := w.Modules[b.Mod]
		if req.Module != mod.Name || len(req.Pairs) != b.Size {
			t.Fatalf("body names %q with %d pairs, want %q with %d", req.Module, len(req.Pairs), mod.Name, b.Size)
		}
		for k, r := range w.Refs(b) {
			f := mod.Funcs[r.Func]
			want := service.Pair{Func: f.Name, A: f.Ptrs[r.A], B: f.Ptrs[r.B]}
			if reversed {
				want.A, want.B = want.B, want.A
			}
			if req.Pairs[k] != want {
				t.Fatalf("pair %d is %+v, want %+v", k, req.Pairs[k], want)
			}
		}
	}
}
