package service

import (
	"runtime/debug"
	"time"

	"repro/internal/budget"
)

// Degradation tuning. The per-round eviction cap keeps one governor tick
// from emptying the registry before the next heap probe can observe the
// effect of the first few evictions; the GC interval bounds how often a
// hard-pressure tick may force a collection to turn freed accounting into
// freed heap.
const (
	maxEvictionsPerRound = 4
	minForcedGCInterval  = time.Second
)

// sampleAccounted sums the service's own memory model: every ready
// module's build estimate (IR, value maps, index, interned expressions)
// and the on-disk store's live bytes (recovery materializes every live
// record back into RAM, so store growth is deferred memory the admission
// levers should see coming).
func (s *Service) sampleAccounted() int64 {
	var acc int64
	s.eachReadyModule(func(h *Handle) {
		acc += h.MemBytes()
	})
	if s.store != nil {
		acc += s.store.SizeBytes()
	}
	return acc
}

// reconcileBudget feeds the tracker a fresh accounting sample and heap
// probe, returning the resulting watermark state.
func (s *Service) reconcileBudget() budget.State {
	if !s.budget.Enabled() {
		return budget.StateOK
	}
	s.budget.SetAccounted(s.sampleAccounted())
	return s.budget.Reconcile()
}

// GovernOnce runs one governor round: reconcile the budget, then apply the
// degradation levers while it stays past the soft watermark. The
// background loop calls this every Config.GovernEvery; tests with
// GovernEvery < 0 call it directly. Admission checks elsewhere only read
// the tracker's state — all *actions* (evictions, forced GC) happen here,
// on one goroutine, never from registry callbacks (teardown can run under
// registry locks).
func (s *Service) GovernOnce() {
	if !s.budget.Enabled() {
		return
	}
	if st := s.reconcileBudget(); st >= budget.StateSoft {
		s.degrade(st)
	}
}

// degrade applies the soft-watermark lever: evict unpinned LRU modules (a
// bounded number per round) while the accounting sum stays above the soft
// watermark. At the hard watermark it additionally forces a (rate-limited)
// GC so the heap probe can observe freed memory instead of waiting out
// GOGC.
func (s *Service) degrade(st budget.State) {
	evicted := 0
	for evicted < maxEvictionsPerRound && s.sampleAccounted() > s.budget.SoftBytes() {
		name, ok := s.reg.EvictOne()
		if !ok {
			break
		}
		evicted++
		s.budgetEvictions.Add(1)
		s.log.Warn("memory budget pressure: evicted module", "module", name,
			"state", st.String(), "used", s.budget.Used(), "soft", s.budget.SoftBytes())
	}
	if st == budget.StateHard {
		now := time.Now().UnixNano()
		if last := s.lastGC.Load(); now-last >= int64(minForcedGCInterval) &&
			s.lastGC.CompareAndSwap(last, now) {
			// FreeOSMemory rather than runtime.GC: past the hard watermark
			// the point is to shrink the figure the operator's OOM killer
			// sees (RSS), so freed heap must actually be returned to the OS
			// instead of waiting out the background scavenger.
			debug.FreeOSMemory()
		}
	}
	if evicted > 0 {
		// Let admission see the post-action accounting now rather than a
		// tick later.
		s.reconcileBudget()
	}
}
