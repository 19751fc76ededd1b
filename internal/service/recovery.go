package service

import (
	"fmt"
	"time"

	"repro/internal/store"
)

// Recover replays the crash-safe store's manifest into the registry —
// cmd/aliasd calls it after the listener is up so health probes see
// "recovering" instead of connection refused. For the duration of the
// replay the service sheds queries and uploads with the retryable
// "recovering" reason; /readyz reports the same.
//
// Each live record re-runs the full build chain, as an upload does — the
// frozen-index and interner contracts hold for recovered modules exactly
// as for uploaded ones. A record that fails to build (a format the binary
// no longer accepts, a module renamed over, a build that panics) is logged
// and skipped but left in the store: the next binary may build it again.
// A record that fails its checksum never reaches here — the store
// quarantines it during replay and it is counted, not served.
//
// Recovery is not re-entrant and must run before the first upload is
// accepted; the recovering gate enforces the latter.
func (s *Service) Recover() error {
	if s.store == nil {
		return nil
	}
	if !s.recovering.CompareAndSwap(false, true) {
		return fmt.Errorf("recovery already running")
	}
	defer s.recovering.Store(false)

	start := time.Now()
	rebuilt, skipped := 0, 0
	replayed, err := s.store.Replay(func(rec store.Record) error {
		h := NewPending(rec.Name, rec.Format)
		if berr := s.build(h, string(rec.Source)); berr != nil {
			s.log.Error("recovered module failed to build; skipping",
				"module", rec.Name, "error", berr)
			skipped++
			return nil
		}
		h.finishReady()
		if aerr := s.reg.Add(h); aerr != nil {
			s.log.Error("recovered module not registered; skipping",
				"module", rec.Name, "error", aerr)
			h.retire()
			skipped++
			return nil
		}
		rebuilt++
		return nil
	})

	// Record a nonzero duration even for an empty replay: "recovery ran
	// and found nothing" and "recovery never ran" must be distinguishable
	// on /metrics.
	d := time.Since(start)
	if d <= 0 {
		d = time.Nanosecond
	}
	s.recoveryDur.Store(int64(d))
	s.reconcileBudget()
	s.log.Info("store recovery finished",
		"replayed", replayed, "rebuilt", rebuilt, "skipped", skipped,
		"quarantined", s.store.Quarantined(), "duration", d)
	if err != nil {
		return fmt.Errorf("store recovery: %w", err)
	}
	return nil
}

// Recovering reports whether a Recover replay is in progress.
func (s *Service) Recovering() bool { return s.recovering.Load() }

// FlushStore durably rewrites the store manifest — the drain path's final
// barrier before exit. Nil-safe no-op without a store.
func (s *Service) FlushStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Flush()
}
