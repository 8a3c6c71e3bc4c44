package resultcache

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfcacd/internal/faultinject"
	"sfcacd/internal/obs"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	store, err := OpenDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("table12", "params", "v1")
	if _, ok, err := store.Get(nil, key); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss with nil error", ok, err)
	}
	env := Envelope{Experiment: "table12", Key: key,
		Params:   json.RawMessage(`{"Particles":100}`),
		Result:   json.RawMessage(`[{"curve":"hilbert"}]`),
		Manifest: json.RawMessage(`{"schema":"x"}`)}
	e := mustEntry(t, env)
	if err := store.Put(nil, e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(nil, key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if got.Key != e.Key || string(got.Body) != string(e.Body) {
		t.Errorf("round trip changed the entry: %s", got.Body)
	}

	// Overwrite refreshes in place.
	env.Result = json.RawMessage(`[]`)
	e = mustEntry(t, env)
	if err := store.Put(nil, e); err != nil {
		t.Fatal(err)
	}
	got, _, _ = store.Get(nil, key)
	if string(got.Body) != string(e.Body) {
		t.Errorf("overwrite did not replace the entry: %s", got.Body)
	}

	// No stray temp files after successful writes.
	matches, _ := filepath.Glob(filepath.Join(store.Dir(), "*", "*.tmp"))
	if len(matches) != 0 {
		t.Errorf("stray temp files left behind: %v", matches)
	}
}

func TestDiskStoreShardedLayout(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("fig6", "params", "v1")
	if err := store.Put(nil, entryFor(t, key)); err != nil {
		t.Fatal(err)
	}
	hexKey := key.String()
	want := filepath.Join(store.Dir(), hexKey[:2], hexKey+".json")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("entry not at sharded path %s: %v", want, err)
	}
}

func TestDiskStoreCorruptEntry(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("fig7", "params", "v1")
	hexKey := key.String()
	dir := filepath.Join(store.Dir(), hexKey[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hexKey+".json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	quarBefore := obs.GetCounter("resultcache.disk_quarantined").Value()
	if _, ok, err := store.Get(nil, key); err == nil || ok {
		t.Fatalf("corrupt entry Get = ok=%v err=%v, want error", ok, err)
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error %q does not identify corruption", err)
	}

	// The bad file is quarantined: the error happens once, then the key
	// misses cleanly forever after.
	if got := obs.GetCounter("resultcache.disk_quarantined").Value() - quarBefore; got != 1 {
		t.Errorf("resultcache.disk_quarantined delta = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, hexKey+".json"+quarantineSuffix)); err != nil {
		t.Errorf("corrupt entry was not renamed aside: %v", err)
	}
	if _, ok, err := store.Get(nil, key); err != nil || ok {
		t.Errorf("Get after quarantine = ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestDiskStoreKeyMismatch(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Store a valid entry, then copy its file under a different key's
	// path: the self-describing key must be verified on load.
	good := entryFor(t, KeyFor("a", "p", "v"))
	if err := store.Put(nil, good); err != nil {
		t.Fatal(err)
	}
	wrong := KeyFor("b", "p", "v")
	src, _ := os.ReadFile(store.path(good.Key))
	dst := store.path(wrong)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(nil, wrong); err == nil || ok {
		t.Fatalf("key-mismatched entry Get = ok=%v err=%v, want error", ok, err)
	}
	// Mismatched entries quarantine like corrupt ones.
	if _, ok, err := store.Get(nil, wrong); err != nil || ok {
		t.Errorf("Get after quarantine = ok=%v err=%v, want clean miss", ok, err)
	}
	if _, ok, err := store.Get(nil, good.Key); err != nil || !ok {
		t.Errorf("original entry lost: ok=%v err=%v", ok, err)
	}
}

// TestDiskStoreEntryMode pins the cross-process permission fix: a
// warmed entry must be world-readable (0644), not the 0600 that
// os.CreateTemp opens with, so a cache warmed by acdbench under one
// user is servable by a daemon running as another.
func TestDiskStoreEntryMode(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("table12", "params", "v1")
	if err := store.Put(nil, entryFor(t, key)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(store.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("entry mode = %o, want 0644", got)
	}
}

// TestDiskStoreCrashSafePut simulates a crash between the durable
// temp-file write and the rename: Put fails, the orphaned temp file
// stays (as it would after a real crash), reopening the store sweeps
// it, and Get misses cleanly.
func TestDiskStoreCrashSafePut(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.EnableN(SiteDiskRename, 1, faultinject.Fault{})
	store.SetFaults(inj)

	key := KeyFor("table12", "params", "v1")
	if err := store.Put(nil, entryFor(t, key)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put with injected rename failure = %v, want ErrInjected", err)
	}
	orphans, _ := filepath.Glob(filepath.Join(dir, "*", "entry-*.tmp"))
	if len(orphans) != 1 {
		t.Fatalf("crashed Put left %d temp files, want 1", len(orphans))
	}

	sweptBefore := obs.GetCounter("resultcache.disk_tmp_swept").Value()
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if orphans, _ := filepath.Glob(filepath.Join(dir, "*", "entry-*.tmp")); len(orphans) != 0 {
		t.Errorf("janitor left orphans behind: %v", orphans)
	}
	if got := obs.GetCounter("resultcache.disk_tmp_swept").Value() - sweptBefore; got != 1 {
		t.Errorf("resultcache.disk_tmp_swept delta = %d, want 1", got)
	}
	if _, ok, err := reopened.Get(nil, key); err != nil || ok {
		t.Errorf("Get after janitor = ok=%v err=%v, want clean miss", ok, err)
	}

	// The same store works normally once the injected fault is spent.
	if err := store.Put(nil, entryFor(t, key)); err != nil {
		t.Fatalf("Put after fault: %v", err)
	}
	if _, ok, err := reopened.Get(nil, key); err != nil || !ok {
		t.Errorf("Get after recovery = ok=%v err=%v, want hit", ok, err)
	}
}

// TestDiskStorePutWriteFaultCleansUp: a failed write (unlike a failed
// rename) is an ordinary error path, not a crash — Put cleans its temp
// file up itself.
func TestDiskStorePutWriteFaultCleansUp(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.EnableN(SiteDiskPut, 1, faultinject.Fault{})
	store.SetFaults(inj)
	if err := store.Put(nil, entryFor(t, KeyFor("a", "p", "v"))); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
	if orphans, _ := filepath.Glob(filepath.Join(dir, "*", "entry-*.tmp")); len(orphans) != 0 {
		t.Errorf("failed write left temp files: %v", orphans)
	}
}

func TestDiskStoreGetFault(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("a", "p", "v")
	if err := store.Put(nil, entryFor(t, key)); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.EnableN(SiteDiskGet, 1, faultinject.Fault{})
	store.SetFaults(inj)
	if _, ok, err := store.Get(nil, key); !errors.Is(err, faultinject.ErrInjected) || ok {
		t.Fatalf("Get with injected fault = ok=%v err=%v, want ErrInjected", ok, err)
	}
	// The entry itself is intact once the fault is spent.
	if _, ok, err := store.Get(nil, key); err != nil || !ok {
		t.Errorf("Get after fault = ok=%v err=%v, want hit", ok, err)
	}
}

// TestDiskStoreVerify: a store holding good entries, a corrupt entry,
// a mis-filed entry, and an orphaned temp file verifies to exactly the
// good set, quarantining the rest.
func TestDiskStoreVerify(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.Put(nil, entryFor(t, KeyFor("table12", strings.Repeat("p", i+1), "v"))); err != nil {
			t.Fatal(err)
		}
	}

	// One corrupt entry, one entry filed under the wrong name, one
	// orphaned temp file.
	corrupt := KeyFor("corrupt", "p", "v").String()
	corruptDir := filepath.Join(dir, corrupt[:2])
	if err := os.MkdirAll(corruptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corruptDir, corrupt+".json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := entryFor(t, KeyFor("good", "p", "v"))
	if err := store.Put(nil, good); err != nil {
		t.Fatal(err)
	}
	misfiled := KeyFor("misfiled", "p", "v").String()
	misfiledDir := filepath.Join(dir, misfiled[:2])
	if err := os.MkdirAll(misfiledDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(store.path(good.Key))
	if err := os.WriteFile(filepath.Join(misfiledDir, misfiled+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corruptDir, "entry-123.tmp"), []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}

	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 || rep.Bad != 2 || rep.TmpSwept != 1 {
		t.Errorf("Verify = %+v, want 4 entries, 2 bad, 1 temp swept", rep)
	}
	if len(rep.BadPaths) != 2 {
		t.Errorf("BadPaths = %v, want the corrupt and misfiled entries", rep.BadPaths)
	}

	// A second walk is clean: the bad files are quarantined.
	rep, err = store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 || rep.Bad != 0 || rep.TmpSwept != 0 {
		t.Errorf("second Verify = %+v, want 4 entries and nothing to do", rep)
	}
}
