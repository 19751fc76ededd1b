package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Write-protocol step names, in the order one Put emits them. The chaos
// injector's crash-after-write=N counts these steps across the process
// lifetime and hard-exits after the Nth — the crash-recovery CI job proves
// a kill at any of them never corrupts the store.
const (
	StepRecordTemp     = "record-temp"     // record temp file written + fsynced
	StepRecordRename   = "record-rename"   // record renamed into records/
	StepManifestTemp   = "manifest-temp"   // manifest temp file written + fsynced
	StepManifestRename = "manifest-rename" // manifest renamed into place
)

const (
	manifestName   = "MANIFEST"
	manifestHeader = "aliasd-store v1"
	recordsDir     = "records"
	corruptDir     = "corrupt"
	recordExt      = ".rec"
	tmpExt         = ".tmp"
)

// op is one manifest log line: an add binding a module name to a record
// file, or a del tombstoning the name. Replaying the log in order yields
// the live set; deletes are kept as tombstone lines (compacted away only
// when the log grows well past the live set) so the on-disk history reads
// like what happened.
type op struct {
	del  bool
	name string
	file string // record file base name ("" for del)
}

// entry is one live module in the store.
type entry struct {
	file string
	size int64 // on-disk record size in bytes
}

// Stats is a point-in-time snapshot of the store's counters, the source of
// the aliasd_store_* metric families.
type Stats struct {
	Records     int   // live (non-tombstoned) records
	Bytes       int64 // summed on-disk size of live records
	Puts        int64 // successful Put calls over the store's lifetime
	Deletes     int64 // successful Delete calls
	Quarantined int64 // records/manifests moved to corrupt/
}

// Store is the crash-safe module store. All methods are safe for concurrent
// use; every mutation is durable (fsynced and atomically renamed) before it
// returns.
type Store struct {
	dir string

	// WriteHook, when non-nil, runs after each completed physical write
	// step of a mutation (see the Step* constants). It is the chaos seam:
	// the crash-after-write injector hard-exits from inside it. Set it
	// before the store is shared across goroutines.
	WriteHook func(step string)

	mu   sync.Mutex
	live map[string]entry
	ops  []op

	puts        atomic.Int64
	deletes     atomic.Int64
	quarantined atomic.Int64
}

// Open loads (or initializes) the store at dir: directories are created,
// stray temp files from interrupted writes are swept, the manifest is read
// and CRC-checked, and record files no manifest entry references are
// removed (they are uploads that crashed before their manifest rename —
// never acknowledged, so never owed). A corrupt manifest is quarantined and
// rebuilt from the records that individually decode, so a damaged store
// degrades to serving its intact records instead of refusing to start.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, recordsDir), filepath.Join(dir, corruptDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, live: map[string]entry{}}
	s.sweepTemps()
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	s.sweepOrphans()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// hook fires the write hook for one completed step.
func (s *Store) hook(step string) {
	if s.WriteHook != nil {
		s.WriteHook(step)
	}
}

// sweepTemps removes *.tmp debris from interrupted writes.
func (s *Store) sweepTemps() {
	for _, d := range []string{s.dir, filepath.Join(s.dir, recordsDir)} {
		ents, err := os.ReadDir(d)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), tmpExt) {
				os.Remove(filepath.Join(d, e.Name()))
			}
		}
	}
}

// sweepOrphans removes record files the manifest does not reference —
// uploads that crashed after the record rename but before the manifest
// rename. Such an upload was never acknowledged to the client.
func (s *Store) sweepOrphans() {
	referenced := map[string]bool{}
	s.mu.Lock()
	for _, e := range s.live {
		referenced[e.file] = true
	}
	s.mu.Unlock()
	ents, err := os.ReadDir(filepath.Join(s.dir, recordsDir))
	if err != nil {
		return
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), recordExt) && !referenced[e.Name()] {
			os.Remove(filepath.Join(s.dir, recordsDir, e.Name()))
		}
	}
}

// quarantine moves path into corrupt/, uniquified against collisions, and
// bumps the counter. Failures degrade to plain removal: a record that
// failed its checksum must never be picked up again.
func (s *Store) quarantine(path string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, corruptDir, base)
	for n := 1; ; n++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, corruptDir, base+"."+strconv.Itoa(n))
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
}

// ---- Manifest ----

// renderManifest serializes an op log with its trailing CRC line.
func renderManifest(ops []op) []byte {
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, o := range ops {
		if o.del {
			fmt.Fprintf(&b, "del - %s\n", url.PathEscape(o.name))
		} else {
			fmt.Fprintf(&b, "add %s %s\n", o.file, url.PathEscape(o.name))
		}
	}
	body := b.String()
	return []byte(fmt.Sprintf("%scrc %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// parseManifest replays a manifest body into an op log, validating the
// header and the trailing CRC line.
func parseManifest(b []byte) ([]op, error) {
	text := string(b)
	idx := strings.LastIndex(text, "crc ")
	if idx < 0 || !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("store: manifest has no CRC trailer")
	}
	body, trailer := text[:idx], strings.TrimSpace(text[idx+len("crc "):])
	want, err := strconv.ParseUint(trailer, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("store: bad manifest CRC line %q", trailer)
	}
	if got := crc32.ChecksumIEEE([]byte(body)); got != uint32(want) {
		return nil, fmt.Errorf("store: manifest CRC mismatch (got %08x, want %08x)", got, want)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestHeader {
		return nil, fmt.Errorf("store: bad manifest header")
	}
	var ops []op
	for _, line := range lines[1:] {
		verb, rest, _ := strings.Cut(line, " ")
		file, escName, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("store: bad manifest line %q", line)
		}
		name, err := url.PathUnescape(escName)
		if err != nil {
			return nil, fmt.Errorf("store: bad manifest name %q: %v", escName, err)
		}
		switch verb {
		case "add":
			if !isRecordFile(file) {
				return nil, fmt.Errorf("store: manifest names %q, not a record file", file)
			}
			ops = append(ops, op{name: name, file: file})
		case "del":
			ops = append(ops, op{del: true, name: name})
		default:
			return nil, fmt.Errorf("store: bad manifest verb %q", verb)
		}
	}
	return ops, nil
}

// isRecordFile reports whether name is a record base name as Put writes
// it: 16 lowercase hex digits and the record extension. Replay, quarantine
// and deletion join a manifest's file names under records/, so any other
// name — a path, a "..", a temp file — is refused.
func isRecordFile(name string) bool {
	hexPart, ok := strings.CutSuffix(name, recordExt)
	if !ok || len(hexPart) != 16 {
		return false
	}
	for i := 0; i < len(hexPart); i++ {
		if c := hexPart[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// loadManifest reads and replays the manifest. A missing manifest is an
// empty store; a corrupt one is quarantined and rebuilt from the records
// that individually pass their own checks (tombstones are lost in that
// worst case — stale-but-valid data can reappear, a wrong answer cannot).
func (s *Store) loadManifest() error {
	path := filepath.Join(s.dir, manifestName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	ops, perr := parseManifest(b)
	if perr != nil {
		s.quarantine(path)
		return s.rebuildManifest()
	}
	s.mu.Lock()
	s.ops = ops
	for _, o := range ops {
		if o.del {
			delete(s.live, o.name)
		} else {
			e := entry{file: o.file}
			if fi, err := os.Stat(filepath.Join(s.dir, recordsDir, o.file)); err == nil {
				e.size = fi.Size()
			}
			s.live[o.name] = e
		}
	}
	s.mu.Unlock()
	return nil
}

// rebuildManifest reconstructs the manifest by decoding every record in
// records/; records that fail their checks are quarantined.
func (s *Store) rebuildManifest() error {
	dir := filepath.Join(s.dir, recordsDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = nil
	s.live = map[string]entry{}
	for _, e := range ents {
		if e.IsDir() || !isRecordFile(e.Name()) {
			continue // the orphan sweep removes stray *.rec files
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rec, err := DecodeRecord(b)
		if err != nil {
			s.mu.Unlock()
			s.quarantine(path)
			s.mu.Lock()
			continue
		}
		s.ops = append(s.ops, op{name: rec.Name, file: e.Name()})
		s.live[rec.Name] = entry{file: e.Name(), size: int64(len(b))}
	}
	sort.Slice(s.ops, func(i, j int) bool { return s.ops[i].name < s.ops[j].name })
	return s.writeManifestLocked()
}

// compactThreshold: rewrite the log as pure adds once tombstones and
// superseded entries dominate it.
const compactThreshold = 4

// writeManifestLocked durably replaces the manifest: compact if bloated,
// temp file + fsync, atomic rename, directory fsync. Caller holds s.mu.
func (s *Store) writeManifestLocked() error {
	if len(s.ops) > compactThreshold*(len(s.live)+1) {
		compacted := make([]op, 0, len(s.live))
		for name, e := range s.live {
			compacted = append(compacted, op{name: name, file: e.file})
		}
		sort.Slice(compacted, func(i, j int) bool { return compacted[i].name < compacted[j].name })
		s.ops = compacted
	}
	data := renderManifest(s.ops)
	tmp := filepath.Join(s.dir, manifestName+tmpExt)
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	s.hook(StepManifestTemp)
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: publishing manifest: %w", err)
	}
	syncDir(s.dir)
	s.hook(StepManifestRename)
	return nil
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ---- Mutations ----

// Put durably persists one module upload. The record lands first (temp,
// fsync, rename), the manifest entry second, so a crash anywhere in between
// leaves at worst an orphan record that Open sweeps. Re-putting an
// identical (name, format, source) is a no-op; re-putting a name with new
// content supersedes the old record.
func (s *Store) Put(name, format string, source []byte) error {
	data, err := EncodeRecord(name, format, source)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	file := hex.EncodeToString(sum[:8]) + recordExt

	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.live[name]
	if had && prev.file == file {
		return nil // identical content already durable
	}
	recPath := filepath.Join(s.dir, recordsDir, file)
	tmp := recPath + tmpExt
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("store: writing record: %w", err)
	}
	s.hook(StepRecordTemp)
	if err := os.Rename(tmp, recPath); err != nil {
		return fmt.Errorf("store: publishing record: %w", err)
	}
	syncDir(filepath.Join(s.dir, recordsDir))
	s.hook(StepRecordRename)

	s.ops = append(s.ops, op{name: name, file: file})
	s.live[name] = entry{file: file, size: int64(len(data))}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	if had {
		// Superseded record: unlink once nothing references it. Crash before
		// this point leaves an orphan for Open's sweep.
		s.removeUnreferencedLocked(prev.file)
	}
	s.puts.Add(1)
	return nil
}

// Delete tombstones name in the manifest, then unlinks its record. Reports
// whether the name was present.
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live[name]
	if !ok {
		return false, nil
	}
	s.ops = append(s.ops, op{del: true, name: name})
	delete(s.live, name)
	if err := s.writeManifestLocked(); err != nil {
		// Roll the in-memory state back: the durable manifest still lists
		// the record, so the store must keep serving it.
		s.ops = s.ops[:len(s.ops)-1]
		s.live[name] = e
		return false, err
	}
	s.removeUnreferencedLocked(e.file)
	s.deletes.Add(1)
	return true, nil
}

// removeUnreferencedLocked unlinks a record file unless a live entry still
// uses it. Caller holds s.mu.
func (s *Store) removeUnreferencedLocked(file string) {
	for _, e := range s.live {
		if e.file == file {
			return
		}
	}
	os.Remove(filepath.Join(s.dir, recordsDir, file))
}

// Replay decodes every live record in name order and hands it to fn —
// recovery's driving loop. A record that fails to read or decode is
// quarantined to corrupt/, tombstoned out of the manifest, counted, and
// skipped; fn's error aborts the replay (the caller is giving up, not the
// store). Returns how many records were successfully replayed.
func (s *Store) Replay(fn func(Record) error) (int, error) {
	s.mu.Lock()
	names := make([]string, 0, len(s.live))
	for name := range s.live {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)

	replayed := 0
	for _, name := range names {
		s.mu.Lock()
		e, ok := s.live[name]
		s.mu.Unlock()
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, recordsDir, e.file)
		b, err := os.ReadFile(path)
		var rec Record
		if err == nil {
			rec, err = DecodeRecord(b)
		}
		if err == nil && rec.Name != name {
			err = fmt.Errorf("store: record %s holds module %q, manifest says %q", e.file, rec.Name, name)
		}
		if err != nil {
			s.quarantine(path)
			s.mu.Lock()
			delete(s.live, name)
			s.ops = append(s.ops, op{del: true, name: name})
			s.writeManifestLocked()
			s.mu.Unlock()
			continue
		}
		if err := fn(rec); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}

// Flush durably rewrites the manifest — the drain path's final barrier.
// Every mutation is already durable on return, so this is cheap insurance
// against nothing in particular, not a required checkpoint.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeManifestLocked()
}

// Len reports the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// SizeBytes reports the summed on-disk size of live records — the figure
// fed into the memory budget's accounted model (recovery materializes
// every live record back into RAM, so store growth is deferred memory).
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.live {
		n += e.size
	}
	return n
}

// Quarantined reports how many corrupt records/manifests were quarantined.
func (s *Store) Quarantined() int64 { return s.quarantined.Load() }

// Snapshot returns the current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	records := len(s.live)
	var bytes int64
	for _, e := range s.live {
		bytes += e.size
	}
	s.mu.Unlock()
	return Stats{
		Records:     records,
		Bytes:       bytes,
		Puts:        s.puts.Load(),
		Deletes:     s.deletes.Load(),
		Quarantined: s.quarantined.Load(),
	}
}
