package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sfcacd/internal/faultinject"
	"sfcacd/internal/obs"
)

// Fault-injection sites inside the disk store. Tests and the daemon's
// -faults flag key on these names; an unconfigured or nil injector
// makes every site a no-op.
const (
	// SiteDiskGet fails the read in Get.
	SiteDiskGet = "resultcache.disk.get"
	// SiteDiskPut fails the temp-file write in Put.
	SiteDiskPut = "resultcache.disk.put"
	// SiteDiskRename fails Put after the temp file is durably written
	// but before the rename — the crash-between-write-and-publish
	// window the janitor exists for. The temp file is deliberately
	// left behind, exactly as a real crash would leave it.
	SiteDiskRename = "resultcache.disk.rename"
	// SiteDiskSync fails the fsync of the temp file.
	SiteDiskSync = "resultcache.disk.sync"
)

// quarantineSuffix is appended to an entry file that failed decode or
// key verification; quarantined files are never read again (they no
// longer match the *.json entry glob) but stay on disk for forensics.
const quarantineSuffix = ".quarantine"

// DiskStore is a content-addressed directory store: one JSON file per
// entry at <dir>/<hex[:2]>/<hex>.json. It lets acdbench warm a cache
// the daemon then serves from (and vice versa), and persists results
// across restarts.
//
// Durability: Put writes a temp file, fsyncs it, renames it over the
// entry path, and fsyncs the parent directory, so after Put returns
// the entry survives a crash or power loss; a crash mid-Put leaves at
// worst an orphaned entry-*.tmp file that the janitor in OpenDisk
// removes on the next open, never a truncated or partially visible
// entry. Entries that nonetheless fail decode or key verification
// (external corruption, a foreign file) are quarantined — renamed
// aside with a ".quarantine" suffix — on first contact, so one bad
// file costs one error, not one error per lookup.
type DiskStore struct {
	dir    string
	faults *faultinject.Injector

	quarantined *obs.Counter // entries renamed aside as undecodable/mismatched
	tmpSwept    *obs.Counter // orphaned temp files removed by the janitor
}

// OpenDisk creates (if needed) and opens a disk store rooted at dir,
// then runs the janitor: orphaned entry-*.tmp files left by a crash
// mid-Put are removed (counted in resultcache.disk_tmp_swept). The
// janitor assumes no other process is writing the store at open time.
func OpenDisk(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: opening disk store: %w", err)
	}
	d := &DiskStore{
		dir:         dir,
		quarantined: obs.GetCounter("resultcache.disk_quarantined"),
		tmpSwept:    obs.GetCounter("resultcache.disk_tmp_swept"),
	}
	if err := d.sweepTmp(); err != nil {
		return nil, fmt.Errorf("resultcache: janitor: %w", err)
	}
	return d, nil
}

// SetFaults installs a fault injector on the store's Get/Put sites
// (nil disables injection). Not safe to call concurrently with store
// operations; set it right after OpenDisk.
func (d *DiskStore) SetFaults(in *faultinject.Injector) { d.faults = in }

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// path returns the entry file of k.
func (d *DiskStore) path(k Key) string {
	hexKey := k.String()
	return filepath.Join(d.dir, hexKey[:2], hexKey+".json")
}

// sweepTmp removes every orphaned temp file in the store's shard
// directories.
func (d *DiskStore) sweepTmp() error {
	orphans, err := filepath.Glob(filepath.Join(d.dir, "*", "entry-*.tmp"))
	if err != nil {
		return err
	}
	for _, orphan := range orphans {
		if err := os.Remove(orphan); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		d.tmpSwept.Inc()
	}
	return nil
}

// quarantine renames a bad entry file aside so it is never re-read;
// best effort — a failed rename leaves the file where it was.
func (d *DiskStore) quarantine(path string) {
	if err := os.Rename(path, path+quarantineSuffix); err == nil {
		d.quarantined.Inc()
	}
}

// Get loads the entry stored under k. A missing entry returns ok ==
// false with a nil error. A present but undecodable or key-mismatched
// entry is quarantined (renamed aside, so the next Get misses cleanly)
// and returns the error this one time. An injected fault is marked
// under parent.
func (d *DiskStore) Get(parent *obs.Span, k Key) (Entry, bool, error) {
	if err := d.faults.Check(parent, SiteDiskGet); err != nil {
		return Entry{}, false, err
	}
	path := d.path(k)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, err
	}
	e, err := decodeEntry(data, k)
	if err != nil {
		d.quarantine(path)
		return Entry{}, false, err
	}
	return e, true, nil
}

// decodeEntry parses an entry file's bytes and verifies its
// self-describing key against the key it was looked up under.
func decodeEntry(data []byte, want Key) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("resultcache: corrupt entry %s: %w", want, err)
	}
	if e.Key != want {
		return Entry{}, fmt.Errorf("resultcache: entry %s stored under key %s", e.Key, want)
	}
	return e, nil
}

// Put stores e under e.Key, atomically and durably replacing any
// existing entry: the temp file is fsynced before the rename and the
// parent directory after it, so a crash at any point leaves either the
// old entry or the new one, never a mix — plus at worst an orphaned
// temp file for the janitor. An injected fault is marked under parent.
func (d *DiskStore) Put(parent *obs.Span, e Entry) error {
	path := d.path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "entry-*.tmp")
	if err != nil {
		return err
	}
	if err := d.writeTmp(parent, tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := d.faults.Check(parent, SiteDiskRename); err != nil {
		return err // simulated crash: leave the temp file for the janitor
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeTmp writes, permissions, and fsyncs the temp file. CreateTemp
// opens files 0600; entries are chmodded to 0644 so a cache warmed by
// acdbench under one user stays readable by a daemon running as
// another.
func (d *DiskStore) writeTmp(parent *obs.Span, tmp *os.File, data []byte) error {
	if err := d.faults.Check(parent, SiteDiskPut); err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := d.faults.Check(parent, SiteDiskSync); err != nil {
		return err
	}
	return tmp.Sync()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// VerifyReport summarizes a DiskStore.Verify walk.
type VerifyReport struct {
	// Entries is the number of entry files that decoded and
	// key-verified.
	Entries int
	// Bad is the number of entry files quarantined by this walk.
	Bad int
	// BadPaths lists the files quarantined by this walk (their
	// original, pre-quarantine paths), sorted.
	BadPaths []string
	// TmpSwept is the number of orphaned temp files removed by this
	// walk.
	TmpSwept int
}

// Verify walks every entry in the store, checking that each file
// decodes and that its self-describing key matches both the filename
// and the shard directory. Bad entries are quarantined exactly as a
// Get would quarantine them; orphaned temp files are swept. It is the
// full-store form of the open-time janitor, exposed as
// acdbench -cache-verify.
func (d *DiskStore) Verify() (VerifyReport, error) {
	var rep VerifyReport
	sweptBefore := d.tmpSwept.Value()
	if err := d.sweepTmp(); err != nil {
		return rep, err
	}
	rep.TmpSwept = int(d.tmpSwept.Value() - sweptBefore)

	files, err := filepath.Glob(filepath.Join(d.dir, "*", "*.json"))
	if err != nil {
		return rep, err
	}
	for _, path := range files {
		var want Key
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		bad := want.parseHex(name) != nil ||
			filepath.Base(filepath.Dir(path)) != name[:2]
		if !bad {
			data, err := os.ReadFile(path)
			if err != nil {
				return rep, err
			}
			_, err = decodeEntry(data, want)
			bad = err != nil
		}
		if bad {
			d.quarantine(path)
			rep.Bad++
			rep.BadPaths = append(rep.BadPaths, path)
			continue
		}
		rep.Entries++
	}
	sort.Strings(rep.BadPaths)
	return rep, nil
}

// parseHex fills k from its lowercase hex form.
func (k *Key) parseHex(s string) error {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(k) {
		return fmt.Errorf("resultcache: bad key %q", s)
	}
	copy(k[:], raw)
	return nil
}
