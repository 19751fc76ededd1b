package alias_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
	"repro/internal/ir"
)

// TestReusedIndexVerdictsIdentical is the reuse layer's differential
// property: a module built with a warm cache (every isolated function
// adapted zero-copy from a donor build of an identical module) must answer
// every pair member-for-member identically to a cold build — result, chain
// attribution, per-member mask and Fig. 14 detail alike.
func TestReusedIndexVerdictsIdentical(t *testing.T) {
	for _, cfg := range diffConfigs()[:4] {
		donor := benchgen.Generate(cfg)
		consumer := benchgen.Generate(cfg) // distinct *ir.Module, identical text

		cache := alias.NewIndexCache(0)
		donorChain := newServiceChain(donor)
		if _, reused := alias.BuildIndexCached(donorChain, donor, cache); reused != 0 {
			t.Fatalf("%s: cold build reported %d reused functions", cfg.Name, reused)
		}

		warmChain := newServiceChain(consumer)
		warmIx, reused := alias.BuildIndexCached(warmChain, consumer, cache)
		if warmIx == nil {
			t.Fatalf("%s: BuildIndexCached returned nil", cfg.Name)
		}
		if reused == 0 {
			t.Fatalf("%s: identical re-upload reused no function analyses", cfg.Name)
		}

		coldChain := newServiceChain(consumer)
		coldIx := alias.BuildIndex(coldChain, consumer)

		checked := 0
		for _, q := range alias.Queries(consumer) {
			want, okW := coldIx.Evaluate(q.P, q.Q)
			got, okG := warmIx.Evaluate(q.P, q.Q)
			if okW != okG {
				t.Fatalf("%s: conclusiveness diverges for (%s,%s)", cfg.Name, q.P.Name, q.Q.Name)
			}
			if !okW {
				continue
			}
			if !fullVerdictEqual(got, want, coldChain.NumMembers()) {
				t.Fatalf("%s: reused verdict for (%s,%s) in %s diverges: got %v, want %v",
					cfg.Name, q.P.Name, q.Q.Name, q.P.Func.Name, got.Result, want.Result)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: no pairs checked", cfg.Name)
		}
		st := cache.Snapshot()
		if st.Hits == 0 || st.Entries == 0 {
			t.Fatalf("%s: cache stats show no activity: %+v", cfg.Name, st)
		}
	}
}

// TestReuseSkipsNonIsolatedFunctions pins the soundness boundary: a
// function that calls out, is called, or touches a global is never cached
// or adapted, because its columns depend on module-wide andersen state.
func TestReuseSkipsNonIsolatedFunctions(t *testing.T) {
	src := `module nprocesswide
global tab 16

func callee(x int) ptr {
entry:
  %b = alloc heap %x
  ret %b
}

func caller(n int) void {
entry:
  %r = call callee(8)
  store %r, %n
  ret
}

func globaluser(n int) void {
entry:
  %q = ptradd @tab, 2
  store %q, %n
  ret
}
`
	build := func() (*ir.Module, *alias.Manager) {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return m, newServiceChain(m)
	}

	cache := alias.NewIndexCache(0)
	m1, c1 := build()
	if ix, reused := alias.BuildIndexCached(c1, m1, cache); ix == nil || reused != 0 {
		t.Fatalf("first build: ix=%v reused=%d", ix, reused)
	}
	m2, c2 := build()
	if _, reused := alias.BuildIndexCached(c2, m2, cache); reused != 0 {
		t.Fatalf("re-upload reused %d non-isolated functions; want 0", reused)
	}
	if st := cache.Snapshot(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("non-isolated functions leaked into the cache: %+v", st)
	}
}

// TestIndexCacheBound pins the LRU byte bound: inserting past the limit
// evicts rather than grows.
func TestIndexCacheBound(t *testing.T) {
	cache := alias.NewIndexCache(16 << 10)
	for i, cfg := range diffConfigs() {
		m := benchgen.Generate(cfg)
		chain := newServiceChain(m)
		if ix, _ := alias.BuildIndexCached(chain, m, cache); ix == nil {
			t.Fatalf("config %d: nil index", i)
		}
	}
	st := cache.Snapshot()
	if st.Bytes > 16<<10 {
		t.Fatalf("cache holds %d bytes, bound is %d", st.Bytes, 16<<10)
	}
	if st.Evictions == 0 && st.Entries > 0 && st.Bytes > (12<<10) {
		t.Logf("cache near bound without evictions: %+v", st)
	}
}
