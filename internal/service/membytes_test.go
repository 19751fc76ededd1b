package service

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/benchgen"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemBytesTracksRetainedHeap checks approx_mem_bytes against what a
// built handle really keeps: the live heap BuildHandle adds, the source
// text included (it is allocated inside the measured window, and the
// parser's names keep it live), must lie within 15% of Handle.MemBytes()
// on Fig. 15 modules of ~24k and ~95k instructions.
func TestMemBytesTracksRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the daemon's")
	}
	if testing.Short() {
		t.Skip("builds two large modules")
	}
	cfgs := benchgen.ScalabilityConfigs(50)
	for _, i := range []int{34, 44} {
		m := benchgen.Generate(cfgs[i])
		before := liveHeap()
		h, err := BuildHandle(m.Name, "ir", m.String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - before
		est := h.MemBytes()
		t.Logf("%s: %d instrs, MemBytes %d, retained %d (%.2fx)", m.Name, h.IRStats.Instrs, est, retained, float64(est)/float64(retained))
		if est < retained*85/100 || est > retained*115/100 {
			t.Errorf("%s (%d instrs): MemBytes = %d, live heap grew by %d; want within 15%%",
				m.Name, h.IRStats.Instrs, est, retained)
		}
		runtime.KeepAlive(h)
		runtime.KeepAlive(m)
	}
}

// TestDeleteReleasesModuleMemory checks that a module's build creates
// nothing that outlives the module: after the 22 Fig. 13 programs are
// uploaded through the handler and every one is deleted again, the live
// heap must be back within 1 MiB of where it stood right after New.
func TestDeleteReleasesModuleMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the daemon's")
	}
	type module struct{ name, src string }
	var mods []module
	for _, c := range benchgen.Fig13Configs() {
		mods = append(mods, module{c.Name, benchgen.Generate(c).String()})
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	baseline := liveHeap()
	for _, m := range mods {
		uploadModule(t, s, m.name, "ir", m.src)
	}
	loaded := liveHeap()
	for _, m := range mods {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/modules/"+m.name, nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("deleting %s: %d %s", m.name, rec.Code, rec.Body.Bytes())
		}
	}
	after := liveHeap()
	t.Logf("live heap over the baseline: %d B with %d modules, %d B after deleting them all",
		loaded-baseline, len(mods), after-baseline)
	if after-baseline > 1<<20 {
		t.Errorf("%d B stay live after every module was deleted; want at most 1 MiB", after-baseline)
	}
	runtime.KeepAlive(mods)
}
