// Package budget tracks a process-wide memory budget for the alias service.
//
// A Tracker is deliberately passive: it combines the service's own
// accounting (the per-module MemBytes sums the registry already maintains)
// with a periodic runtime.ReadMemStats reconciliation, and reduces the pair
// to a watermark state — OK, Soft, or Hard — with hysteresis so the state
// does not flap around a boundary. It never takes degradation actions
// itself; the service's governor loop reads the state and applies the
// levers (module eviction, upload rejection, query shedding).
// Keeping the tracker free of callbacks is what keeps it deadlock-free:
// registry teardown can run while registry locks are held, so nothing in
// this package may call back into the service.
//
// All read paths (State, Used, Snapshot) are atomic loads — safe to call
// from scrape collectors and admission checks without contending with the
// reconcile path.
package budget

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// State is the tracker's watermark position. Ordering is meaningful:
// StateHard > StateSoft > StateOK, so admission checks compare with >=.
type State int32

const (
	// StateOK: usage below the soft watermark; no degradation.
	StateOK State = iota
	// StateSoft: usage crossed the soft watermark; the governor evicts
	// unpinned LRU modules.
	StateSoft
	// StateHard: usage crossed the hard watermark; uploads are rejected
	// and query admission tightens.
	StateHard
)

// String renders the state the way /v1/stats and the metrics report it.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateSoft:
		return "soft"
	case StateHard:
		return "hard"
	}
	return "State(" + strconv.Itoa(int(s)) + ")"
}

// Watermark fractions of the limit, and the hysteresis factor applied when
// leaving a state: once usage crosses a watermark the state sticks until
// usage falls below recoverFrac × watermark, so a value oscillating right
// at the boundary does not flap degradation on and off every tick.
const (
	DefaultSoftFrac    = 0.70
	DefaultHardFrac    = 0.85
	DefaultRecoverFrac = 0.90
)

// Options tune a Tracker. The zero value uses the defaults above.
type Options struct {
	// SoftFrac and HardFrac place the watermarks as fractions of the
	// limit (0 = defaults). HardFrac is clamped to at least SoftFrac.
	SoftFrac, HardFrac float64
	// RecoverFrac is the hysteresis factor in (0, 1] (0 = default).
	RecoverFrac float64
	// ReadHeap overrides the live-heap probe (runtime.ReadMemStats
	// HeapAlloc by default). Tests inject deterministic pressure here.
	ReadHeap func() int64
}

// Tracker reduces (accounted bytes, live heap bytes) against a fixed limit
// to a watermark State. A nil Tracker is valid and permanently disabled.
type Tracker struct {
	limit, soft, hard int64
	recoverFrac       float64
	readHeap          func() int64

	accounted atomic.Int64
	heap      atomic.Int64
	state     atomic.Int32
	// transitions[s] counts entries into state s (ok entries are
	// recoveries). Indexed by State.
	transitions [3]atomic.Int64
	reconciles  atomic.Int64

	// mu serializes state recomputation so two concurrent reconciles
	// cannot interleave their read-modify-write of the state machine.
	// Never held during reads: every getter is an atomic load.
	mu sync.Mutex
}

// Snapshot is a coherent-enough point-in-time view of a Tracker, for
// /v1/stats and the metrics collectors. Both endpoints render the same
// atomics, and the values only change on reconcile, so an idle daemon
// reconciles exactly.
type Snapshot struct {
	Limit, Soft, Hard     int64
	Accounted, Heap, Used int64
	State                 State
	Transitions           [3]int64
	Reconciles            int64
}

// New builds a tracker for limit bytes. limit <= 0 returns nil: the
// disabled tracker, on which every method is a cheap no-op.
func New(limit int64, opts Options) *Tracker {
	if limit <= 0 {
		return nil
	}
	softFrac, hardFrac, recoverFrac := opts.SoftFrac, opts.HardFrac, opts.RecoverFrac
	if softFrac <= 0 || softFrac > 1 {
		softFrac = DefaultSoftFrac
	}
	if hardFrac <= 0 || hardFrac > 1 {
		hardFrac = DefaultHardFrac
	}
	if hardFrac < softFrac {
		hardFrac = softFrac
	}
	if recoverFrac <= 0 || recoverFrac > 1 {
		recoverFrac = DefaultRecoverFrac
	}
	read := opts.ReadHeap
	if read == nil {
		read = readHeapAlloc
	}
	return &Tracker{
		limit:       limit,
		soft:        int64(float64(limit) * softFrac),
		hard:        int64(float64(limit) * hardFrac),
		recoverFrac: recoverFrac,
		readHeap:    read,
	}
}

func readHeapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Enabled reports whether the tracker enforces a budget.
func (t *Tracker) Enabled() bool { return t != nil && t.limit > 0 }

// SetAccounted records the service-side accounting sum and recomputes the
// state. Accounting alone can cross a watermark (a burst of module builds)
// before the next heap probe notices.
func (t *Tracker) SetAccounted(n int64) {
	if !t.Enabled() {
		return
	}
	t.accounted.Store(n)
	t.recompute()
}

// Reconcile probes the live heap, recomputes the state from
// max(accounted, heap), and returns it. The governor calls this every tick.
func (t *Tracker) Reconcile() State {
	if !t.Enabled() {
		return StateOK
	}
	t.heap.Store(t.readHeap())
	t.reconciles.Add(1)
	t.recompute()
	return t.State()
}

// recompute advances the state machine. Rising crossings act immediately;
// falling transitions require usage below recoverFrac × the watermark that
// admitted the current state (hysteresis).
func (t *Tracker) recompute() {
	t.mu.Lock()
	defer t.mu.Unlock()
	used := t.Used()
	cur := t.State()
	next := cur
	below := func(mark int64) bool {
		return float64(used) < float64(mark)*t.recoverFrac
	}
	switch cur {
	case StateOK:
		switch {
		case used >= t.hard:
			next = StateHard
		case used >= t.soft:
			next = StateSoft
		}
	case StateSoft:
		switch {
		case used >= t.hard:
			next = StateHard
		case below(t.soft):
			next = StateOK
		}
	case StateHard:
		if below(t.hard) {
			if used >= t.soft {
				next = StateSoft
			} else {
				next = StateOK
			}
		}
	}
	if next != cur {
		t.state.Store(int32(next))
		t.transitions[next].Add(1)
	}
}

// State returns the current watermark state (StateOK when disabled).
func (t *Tracker) State() State {
	if !t.Enabled() {
		return StateOK
	}
	return State(t.state.Load())
}

// Used is the enforced figure: the larger of the accounting sum and the
// last heap probe. Accounting catches growth the heap probe has not seen
// yet (it only runs on reconcile); the heap catches everything the
// accounting model misses (goroutine stacks, request buffers, fragments).
func (t *Tracker) Used() int64 {
	if !t.Enabled() {
		return 0
	}
	if acc, heap := t.accounted.Load(), t.heap.Load(); acc > heap {
		return acc
	} else {
		return heap
	}
}

// Limit returns the configured budget (0 when disabled).
func (t *Tracker) Limit() int64 {
	if !t.Enabled() {
		return 0
	}
	return t.limit
}

// SoftBytes returns the soft watermark in bytes (0 when disabled).
func (t *Tracker) SoftBytes() int64 {
	if !t.Enabled() {
		return 0
	}
	return t.soft
}

// HardBytes returns the hard watermark in bytes (0 when disabled).
func (t *Tracker) HardBytes() int64 {
	if !t.Enabled() {
		return 0
	}
	return t.hard
}

// Snapshot reads every counter with atomic loads — no locks, so scrape
// collectors may call it on any path.
func (t *Tracker) Snapshot() Snapshot {
	if !t.Enabled() {
		return Snapshot{}
	}
	s := Snapshot{
		Limit:      t.limit,
		Soft:       t.soft,
		Hard:       t.hard,
		Accounted:  t.accounted.Load(),
		Heap:       t.heap.Load(),
		State:      t.State(),
		Reconciles: t.reconciles.Load(),
	}
	s.Used = s.Accounted
	if s.Heap > s.Used {
		s.Used = s.Heap
	}
	for i := range t.transitions {
		s.Transitions[i] = t.transitions[i].Load()
	}
	return s
}

// ProcessRSS returns the process's resident set size in bytes, read from
// /proc/self/statm, or 0 where the proc filesystem is unavailable. The
// soak scenario uses the exported gauge to assert RSS stays flat across
// thousands of module-churn cycles.
func ProcessRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
