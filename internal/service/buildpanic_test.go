package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestBuildPanicFailsOnlyItsModule injects a panic into the build of every
// module whose name starts with "boom" (through the chaos BuildStart hook)
// and checks that it fails that module alone on all three build paths:
// recovery logs and skips the record, a sync upload answers 500 with the
// panic as its error, and an async build ends failed with it. The daemon
// keeps serving its other module throughout.
func TestBuildPanicFailsOnlyItsModule(t *testing.T) {
	const want = "build panicked: injected build fault"
	src := fig1Source(t)
	dir := t.TempDir()

	// Persist a healthy module and one whose builds will panic after the
	// restart.
	s1, ts1 := startServer(t, Config{Store: openStoreT(t, dir)})
	for _, name := range []string{"fig1", "boom-recovered"} {
		if resp := postModule(t, ts1, name, "minic", src); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", name, resp.StatusCode, body(t, resp))
		}
	}
	s1.Close()
	ts1.Close()

	chaos := &chaosHooks{buildStart: func(module string) {
		if strings.HasPrefix(module, "boom") {
			panic("injected build fault")
		}
	}}
	s, ts := startServer(t, Config{Parallel: 2, BuildWorkers: 1, Chaos: chaos, Store: openStoreT(t, dir)})
	t.Cleanup(s.Close)
	serving := func(when string) {
		t.Helper()
		if code, out := postQueryAll(t, ts, "fig1", src); code != http.StatusOK {
			t.Fatalf("%s: querying fig1: %d %s", when, code, out)
		}
	}

	// Recovery: the panicking record is skipped, the other one served.
	if err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	serving("after recovery")
	resp, err := http.Get(ts.URL + "/v1/modules/boom-recovered")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET boom-recovered after recovery: %d, want 404", resp.StatusCode)
	}
	body(t, resp)

	// Sync upload: 500, with the panic as the error.
	resp = postModule(t, ts, "boom-sync", "minic", src)
	var e errorResponse
	if err := json.Unmarshal(body(t, resp), &e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Error != want {
		t.Errorf("sync upload of boom-sync: %d %q, want 500 %q", resp.StatusCode, e.Error, want)
	}
	serving("after the sync panic")

	// Async upload: accepted, then failed with the panic as the error.
	resp = postModuleAsync(t, ts.URL, "boom-async", "minic", src)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async upload of boom-async: %d, want 202 — %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)
	if info := pollStatus(t, ts.URL, "boom-async", "failed"); info.Error != want {
		t.Errorf("boom-async failed with %q, want %q", info.Error, want)
	}
	serving("after the async panic")

	// The build worker survived: a healthy async build still completes.
	resp = postModuleAsync(t, ts.URL, "fig1-async", "minic", src)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async upload of fig1-async: %d, want 202 — %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)
	pollStatus(t, ts.URL, "fig1-async", "ready")
}
