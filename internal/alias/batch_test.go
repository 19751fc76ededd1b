package alias_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
)

// TestManagerBatchedCountersMatchSequentialReplay models a batched
// workload: batches drawn with replacement from the query set (so batches
// overlap and replay pairs) are evaluated by concurrent workers. Every
// counter — queries, no-alias, per-member counts, first-wins attribution,
// and the Fig. 14 detail histograms — must equal a sequential replay of the
// exact same multiset of queries on a twin manager.
func TestManagerBatchedCountersMatchSequentialReplay(t *testing.T) {
	m := benchgen.Generate(benchgen.Fig13Configs()[9]) // fixoutput: small, rich verdict mix
	qs := alias.Queries(m)
	if len(qs) < 10 {
		t.Fatalf("fixture too small: %d queries", len(qs))
	}

	// Deterministic batches with duplicates: 64 batches × 128 pairs.
	rng := rand.New(rand.NewSource(42))
	const nBatches, batchSize = 64, 128
	batches := make([][]alias.Pair, nBatches)
	for b := range batches {
		batches[b] = make([]alias.Pair, batchSize)
		for i := range batches[b] {
			q := qs[rng.Intn(len(qs))]
			if rng.Intn(2) == 0 { // both orientations must canonicalize
				q.P, q.Q = q.Q, q.P
			}
			batches[b][i] = q
		}
	}

	// Concurrent run: workers pull whole batches.
	concurrent := newTestManager(m, alias.ManagerOptions{})
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				for _, q := range batches[b] {
					concurrent.Evaluate(q.P, q.Q)
				}
			}
		}()
	}
	for b := range batches {
		next <- b
	}
	close(next)
	wg.Wait()

	// Sequential replay of the same multiset on a twin manager.
	sequential := newTestManager(m, alias.ManagerOptions{})
	for _, batch := range batches {
		for _, q := range batch {
			sequential.Evaluate(q.P, q.Q)
		}
	}

	got, want := concurrent.Stats(), sequential.Stats()
	if got.Queries != int64(nBatches*batchSize) {
		t.Errorf("queries = %d, want %d", got.Queries, nBatches*batchSize)
	}
	if got.NoAlias == 0 {
		t.Error("no no-alias answers; the fixture does not exercise the counters")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent batched stats diverge from sequential replay\n got: %+v\nwant: %+v", got, want)
	}
}
