package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func liveNames(t *testing.T, s *Store) []string {
	t.Helper()
	var names []string
	if _, err := s.Replay(func(r Record) error {
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sort.Strings(names)
	return names
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Put("a", "minic", []byte("int a;")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "ir", []byte("func f(p ptr) ptr { ret p }")); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Delete("a"); err != nil || !ok {
		t.Fatalf("Delete(a) = %v, %v", ok, err)
	}
	if ok, _ := s.Delete("nope"); ok {
		t.Fatal("Delete of absent name reported true")
	}

	// Fresh open must replay exactly {b} — the tombstone holds.
	s2 := openT(t, dir)
	if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("after reopen live = %v, want [b]", got)
	}
	var src []byte
	s2.Replay(func(r Record) error { src = r.Source; return nil })
	if !bytes.Equal(src, []byte("func f(p ptr) ptr { ret p }")) {
		t.Fatal("replayed source differs from what was put")
	}
	st := s2.Snapshot()
	if st.Records != 1 || st.Quarantined != 0 || st.Bytes == 0 {
		t.Fatalf("Snapshot = %+v", st)
	}
}

func TestStorePutIdempotentAndSupersede(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Put("m", "minic", []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after identical re-puts", s.Len())
	}
	if err := s.Put("m", "minic", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	recs, _ := os.ReadDir(filepath.Join(dir, recordsDir))
	if len(recs) != 1 {
		t.Fatalf("records dir holds %d files after supersede, want 1", len(recs))
	}
	s2 := openT(t, dir)
	var src []byte
	s2.Replay(func(r Record) error { src = r.Source; return nil })
	if string(src) != "v2" {
		t.Fatalf("replayed %q, want v2", src)
	}
}

// copyDir snapshots a data dir, simulating what a kill -9 leaves on disk at
// the moment a write step completed (the fsync discipline guarantees the
// completed steps are durable).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copyDir: %v", err)
	}
}

// TestStoreCrashAtEveryStep snapshots the data dir after each write step of
// a Put and a Delete, then reopens every snapshot: recovery must always see
// zero quarantined records and a module set equal to either the before- or
// after-state of the interrupted mutation — never a third state.
func TestStoreCrashAtEveryStep(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Put("stable", "minic", []byte("int s;")); err != nil {
		t.Fatal(err)
	}

	type snap struct {
		step string
		dir  string
	}
	var snaps []snap
	n := 0
	s.WriteHook = func(step string) {
		n++
		d := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%02d-%s", n, step))
		copyDir(t, dir, d)
		snaps = append(snaps, snap{step, d})
	}

	if err := s.Put("incoming", "minic", []byte("int i;")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("stable"); err != nil {
		t.Fatal(err)
	}
	// Put fires all 4 steps; Delete mutates only the manifest, so 2 more.
	if len(snaps) != 6 {
		t.Fatalf("captured %d crash points, want 6", len(snaps))
	}

	valid := map[string]bool{
		"stable":          true, // before Put
		"incoming,stable": true, // after Put / before Delete (sorted)
		"incoming":        true, // after Delete
	}
	for _, sn := range snaps {
		rs := openT(t, sn.dir)
		if q := rs.Quarantined(); q != 0 {
			t.Errorf("crash at %s (%s): %d records quarantined on recovery", sn.step, sn.dir, q)
		}
		got := strings.Join(liveNames(t, rs), ",")
		if !valid[got] {
			t.Errorf("crash at %s: recovered module set %q is neither before nor after state", sn.step, got)
		}
	}
}

// TestStoreBitFlipQuarantine damages one live record on disk; a reopen +
// replay must quarantine it (moved to corrupt/, counter bumped) and keep
// serving the intact record.
func TestStoreBitFlipQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put("good", "minic", []byte("int g;"))
	s.Put("bad", "minic", []byte("int b;"))

	var badFile string
	s.mu.Lock()
	badFile = s.live["bad"].file
	s.mu.Unlock()
	path := filepath.Join(dir, recordsDir, badFile)
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x40
	os.WriteFile(path, b, 0o644)

	s2 := openT(t, dir)
	if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"good"}) {
		t.Fatalf("after bit flip live = %v, want [good]", got)
	}
	if q := s2.Quarantined(); q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, corruptDir))
	if len(ents) != 1 {
		t.Fatalf("corrupt/ holds %d files, want 1", len(ents))
	}
	// The quarantined name is tombstoned: a third open sees the same state
	// without re-quarantining.
	s3 := openT(t, dir)
	if got := liveNames(t, s3); !reflect.DeepEqual(got, []string{"good"}) {
		t.Fatalf("third open live = %v, want [good]", got)
	}
	if q := s3.Quarantined(); q != 0 {
		t.Fatalf("third open re-quarantined %d records", q)
	}
}

// TestStoreManifestCorruption truncates and bit-flips the manifest; Open
// must quarantine it and rebuild from the records that decode.
func TestStoreManifestCorruption(t *testing.T) {
	for _, mode := range []string{"truncate", "bitflip", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			s.Put("a", "minic", []byte("int a;"))
			s.Put("b", "ir", []byte("func f(p ptr) ptr { ret p }"))

			path := filepath.Join(dir, manifestName)
			b, _ := os.ReadFile(path)
			switch mode {
			case "truncate":
				b = b[:len(b)/2]
			case "bitflip":
				b[len(b)/3] ^= 0x10
			case "garbage":
				b = []byte("not a manifest at all\n")
			}
			os.WriteFile(path, b, 0o644)

			s2 := openT(t, dir)
			if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"a", "b"}) {
				t.Fatalf("rebuilt live = %v, want [a b]", got)
			}
			if q := s2.Quarantined(); q != 1 {
				t.Fatalf("Quarantined = %d, want 1 (the manifest)", q)
			}
		})
	}
}

func TestStoreSweepsOrphansAndTemps(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put("keep", "minic", []byte("int k;"))

	// Simulate a crash between record-rename and manifest-rename: a fully
	// written record no manifest entry references.
	orphan, _ := EncodeRecord("orphan", "minic", []byte("int o;"))
	os.WriteFile(filepath.Join(dir, recordsDir, "deadbeefdeadbeef.rec"), orphan, 0o644)
	os.WriteFile(filepath.Join(dir, recordsDir, "partial.rec.tmp"), []byte("torn"), 0o644)
	os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("torn"), 0o644)

	s2 := openT(t, dir)
	if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"keep"}) {
		t.Fatalf("live = %v, want [keep]", got)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, recordsDir))
	if len(ents) != 1 {
		t.Fatalf("records/ holds %d files after sweep, want 1", len(ents))
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("manifest temp file survived the sweep")
	}
	if q := s2.Quarantined(); q != 0 {
		t.Fatalf("sweep quarantined %d records; orphans are debris, not corruption", q)
	}
}

func TestStoreManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("m%d", i%3)
		if err := s.Put(name, "minic", []byte(fmt.Sprintf("int v%d;", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	ops, live := len(s.ops), len(s.live)
	s.mu.Unlock()
	if ops > compactThreshold*(live+1) {
		t.Fatalf("op log grew to %d entries over %d live records — compaction never ran", ops, live)
	}
	s2 := openT(t, dir)
	if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"m0", "m1", "m2"}) {
		t.Fatalf("after compaction live = %v", got)
	}
}

// manifestRejects are manifests parseManifest must refuse; FuzzParseManifest
// seeds its corpus with them.
var manifestRejects = []string{
	"",
	"aliasd-store v1\n",                      // no CRC line
	"wrong header\ncrc 00000000\n",           // bad header (CRC also wrong)
	"aliasd-store v1\ncrc deadbeef\n",        // CRC mismatch
	"aliasd-store v1\nadd onlyonefield\ncrc", // malformed, no trailer newline
	// CRC-valid adds whose file is not a record base name: a path out of
	// records/, upper-case hex, a short name, a temp file.
	string(renderManifest([]op{{name: "m", file: "../../victim.rec"}})),
	string(renderManifest([]op{{name: "m", file: "0123456789ABCDEF.rec"}})),
	string(renderManifest([]op{{name: "m", file: "0123456789abcde.rec"}})),
	string(renderManifest([]op{{name: "m", file: "0123456789abcdef.rec.tmp"}})),
}

func TestParseManifestRejects(t *testing.T) {
	for _, c := range manifestRejects {
		if _, err := parseManifest([]byte(c)); err == nil {
			t.Errorf("parseManifest(%q) accepted", c)
		}
	}
}

// TestStoreKeepsFilesOutsideRecords: a CRC-valid manifest line naming a
// file outside records/ must not let Open or Replay touch that file (the
// manifest is quarantined and rebuilt from the records instead). Replay
// used to move such a file into corrupt/, and Delete would unlink it.
func TestStoreKeepsFilesOutsideRecords(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	s := openT(t, dir)
	if err := s.Put("a", "minic", []byte("int a;")); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(root, "victim.rec")
	if err := os.WriteFile(victim, []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	forged := renderManifest(append(s.ops, op{name: "m", file: "../../victim.rec"}))
	s.mu.Unlock()
	if err := os.WriteFile(filepath.Join(dir, manifestName), forged, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if got := liveNames(t, s2); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("after the forged manifest live = %v, want [a]", got)
	}
	if b, err := os.ReadFile(victim); err != nil || !bytes.Equal(b, []byte("not a record")) {
		t.Fatalf("file outside the data directory was touched: %q, %v", b, err)
	}
}

// FuzzParseManifest: every manifest parseManifest accepts names only record
// base names in its adds, and re-rendering the parsed ops parses back to
// the same ops.
func FuzzParseManifest(f *testing.F) {
	f.Add(renderManifest([]op{
		{name: "fig1", file: "0123456789abcdef.rec"},
		{name: "a b/%c", file: "fedcba9876543210.rec"},
		{del: true, name: "fig1"},
	}))
	for _, c := range manifestRejects {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := parseManifest(b)
		if err != nil {
			return
		}
		for _, o := range ops {
			if !o.del && !isRecordFile(o.file) {
				t.Fatalf("accepted add of %q, not a record base name", o.file)
			}
		}
		again, err := parseManifest(renderManifest(ops))
		if err != nil {
			t.Fatalf("re-rendered manifest does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, ops) {
			t.Fatalf("re-rendered manifest parses to %+v, want %+v", again, ops)
		}
	})
}
