package bench

import (
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/service"
)

// Run is one timed run of a workload against an in-process service.
type Run struct {
	W *Workload
	// Setup is the wall time from constructing the service to the start
	// of the timed phase: the uploads, which build every module, and the
	// warm-up batches.
	Setup time.Duration
	// Wall and CPU cover the timed phase; CPU is the process's user+system
	// time.
	Wall, CPU time.Duration
	// Requests counts timed /v1/query requests, Failed those not answered
	// 200, Pairs the pairs the answered ones carried.
	Requests, Failed, Pairs int64
	// AllocBytes is what the process allocated in the timed phase.
	AllocBytes uint64
	// RetainedBytes is the live heap after a forced GC with the modules
	// loaded, minus the live heap before the first upload.
	RetainedBytes int64
	// Lat holds the wall time of every timed request.
	Lat *Latencies

	svc  *service.Service
	body []byte
	// hashes[i] is the hash of batch i's first answer; later answers to
	// the same batch must hash the same.
	seed       maphash.Seed
	hashes     []uint64
	seen       []bool
	mismatches int
}

// latencyRoom sizes the latency buffer: room for 4096 requests per second
// of the timed phase, well above what any workload reaches here, so that
// recording never grows the buffer mid-run.
const latencyRoom = 4096

// Start runs the set-up — service construction, the uploads and the
// warm-up — and then the timed phase, which sends whole rounds of w's
// batches until d has passed.
func Start(w *Workload, d time.Duration) (*Run, error) {
	r := &Run{
		W:      w,
		Lat:    NewLatencies(int(d.Seconds()+1) * latencyRoom),
		seed:   maphash.MakeSeed(),
		hashes: make([]uint64, len(w.Batches)),
		seen:   make([]bool, len(w.Batches)),
	}
	// Grow the body buffer to its final size now, so that it is part of the
	// heap baseline rather than of the retained heap.
	for _, b := range w.Batches {
		r.body = w.AppendBody(r.body[:0], b, true)
	}
	heap0 := LiveHeap()

	t0 := time.Now()
	r.svc = NewService()
	c := NewClient(r.svc.Handler())
	for _, m := range w.Modules {
		if err := c.Upload(m); err != nil {
			return nil, err
		}
	}
	srcBytes := w.SrcBytes()
	for _, m := range w.Modules {
		m.Src = ""
	}
	for i := 0; i < w.Warmup; i++ {
		bi := i % len(w.Batches)
		r.body = w.AppendBody(r.body[:0], w.Batches[bi], false)
		code, resp, err := c.Query(r.body)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("warm-up batch %d: status %d, %v: %s", i, code, err, resp)
		}
		r.record(bi, resp)
	}
	r.Setup = time.Since(t0)

	cpu0, alloc0 := CPUTime(), AllocBytes()
	start := time.Now()
	for {
		for bi, b := range w.Batches {
			r.body = w.AppendBody(r.body[:0], b, false)
			t := time.Now()
			code, resp, err := c.Query(r.body)
			r.Lat.Add(time.Since(t))
			r.Requests++
			if err != nil || code != http.StatusOK {
				r.Failed++
				continue
			}
			r.Pairs += int64(b.Size)
			r.record(bi, resp)
		}
		if time.Since(start) >= d {
			break
		}
	}
	r.Wall = time.Since(start)
	r.CPU = CPUTime() - cpu0
	r.AllocBytes = AllocBytes() - alloc0

	// The client's response buffer grew after the baseline; drop it so the
	// difference is the service's alone. The module texts were part of the
	// baseline and are gone now, so add them back.
	c = nil
	r.RetainedBytes = LiveHeap() - heap0 + srcBytes
	return r, nil
}

// record hashes one answer to batch bi and compares it with the first.
func (r *Run) record(bi int, resp []byte) {
	h := maphash.Bytes(r.seed, resp)
	if !r.seen[bi] {
		r.seen[bi], r.hashes[bi] = true, h
		return
	}
	if h != r.hashes[bi] {
		r.mismatches++
	}
}

// Check sends every distinct batch once more, checks the answers (see
// Verifier) and compares each with what the timed phase and the warm-up
// got for the same batch. On corpus every batch is also sent reversed.
func (r *Run) Check() error {
	v, err := NewVerifier(r.W)
	if err != nil {
		return err
	}
	c := NewClient(r.svc.Handler())
	for bi, b := range r.W.Batches {
		r.body = r.W.AppendBody(r.body[:0], b, false)
		code, resp, err := c.Query(r.body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("check batch %d: status %d, %v: %s", bi, code, err, resp)
		}
		if r.seen[bi] && maphash.Bytes(r.seed, resp) != r.hashes[bi] {
			v.fail("%s batch at %d: timed answer differs from the checked one", r.W.Modules[b.Mod].Name, b.Start)
		}
		v.Batch(b, resp)
		if r.W.Name == Corpus {
			r.body = r.W.AppendBody(r.body[:0], b, true)
			code, resp, err := c.Query(r.body)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("check reversed batch %d: status %d, %v: %s", bi, code, err, resp)
			}
			v.Reversed(b, resp)
		}
	}
	if r.mismatches > 0 {
		v.fail("%d timed answers differ from the first answer to the same batch", r.mismatches)
	}
	checked, skipped := v.Collisions()
	if checked+skipped > 0 {
		fmt.Printf("checked %d concretely colliding pairs; %d could not be asked (globals, constants, cross-function)\n", checked, skipped)
	}
	return v.Finish()
}

// Close stops the service.
func (r *Run) Close() { r.svc.Close() }

// LiveHeap forces two collections — the second empties the sync.Pool
// victim caches — and returns the live heap they marked.
func LiveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// AllocBytes returns the bytes the process has allocated on the heap.
func AllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// CPUTime returns the process's user plus system CPU time.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
