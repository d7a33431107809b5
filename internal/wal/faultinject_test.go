package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fault-injection writer behind the openSegFile hook: a shared
// byte budget (short-writes then fails once exhausted), a sync-failure
// switch, and an open-failure countdown. Setting budget to -1 and the
// switches off "heals" the fault without uninstalling the hook, so one
// test can crash the log and then recover it. Every file the hook
// opened is kept in files, so powerLoss can cut each back to its last
// completed fsync.
type fault struct {
	budget    int // bytes writable before failure; -1 = unlimited
	syncFails bool
	openFails bool
	files     []*faultFile
}

var errInjected = errors.New("injected fault")

// faultFile wraps a segment file. Besides the injected faults it keeps
// a synced-length watermark: the file's length when its last fsync
// began, which is all a completed fsync promises to be on disk. The
// window's fsync runs off the log lock, so the counts sit under mu.
type faultFile struct {
	f    segFile
	ft   *fault
	path string

	mu      sync.Mutex
	written int64 // file length, headers included
	synced  int64 // length covered by the last completed fsync
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.ft.budget < 0 || ff.ft.budget >= len(p) {
		if ff.ft.budget >= 0 {
			ff.ft.budget -= len(p)
		}
		n, err := ff.f.Write(p)
		ff.grow(n)
		return n, err
	}
	// Short write: the torn-tail case a real crash produces.
	n := ff.ft.budget
	ff.ft.budget = 0
	if n > 0 {
		wn, err := ff.f.Write(p[:n])
		ff.grow(wn)
		if err != nil {
			return wn, err
		}
	}
	return n, errInjected
}

func (ff *faultFile) grow(n int) {
	ff.mu.Lock()
	ff.written += int64(n)
	ff.mu.Unlock()
}

func (ff *faultFile) Sync() error {
	if ff.ft.syncFails {
		return errInjected
	}
	ff.mu.Lock()
	covered := ff.written
	ff.mu.Unlock()
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.mu.Lock()
	ff.synced = max(ff.synced, covered)
	ff.mu.Unlock()
	return nil
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// installFault swaps the segment-file hook for the test's lifetime.
func installFault(t *testing.T, ft *fault) {
	t.Helper()
	orig := openSegFile
	openSegFile = func(path string, flag int) (segFile, error) {
		if ft.openFails {
			return nil, errInjected
		}
		f, err := orig(path, flag)
		if err != nil {
			return nil, err
		}
		// A file that existed before is taken as synced: the log that
		// wrote it closed it, and Close fsyncs.
		fi, err := os.Stat(path)
		if err != nil {
			f.Close()
			return nil, err
		}
		ff := &faultFile{f: f, ft: ft, path: path, written: fi.Size(), synced: fi.Size()}
		ft.files = append(ft.files, ff)
		return ff, nil
	}
	t.Cleanup(func() { openSegFile = orig })
}

// powerLoss models the machine losing power under a live log: every
// file the hook opened is closed without an fsync and cut back to the
// length its last completed fsync covered. The log itself is abandoned,
// as a crashed process would leave it.
func (ft *fault) powerLoss(t *testing.T) {
	t.Helper()
	for _, ff := range ft.files {
		ff.f.Close() // a sealed segment is closed already
		ff.mu.Lock()
		synced := ff.synced
		ff.mu.Unlock()
		if err := os.Truncate(ff.path, synced); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	ft.files = nil
}

// TestFaultShortWriteRecovered: a short write mid-record surfaces the
// error, poisons the log, and leaves a torn tail that the next Open
// truncates away — the fully-written records survive.
func TestFaultShortWriteRecovered(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{Clock: stoppedClock()})
	for _, s := range []string{"whole-one", "whole-two"} {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	ft := &fault{budget: -1} // healthy while Open reopens the tail
	installFault(t, ft)
	var got []string
	l2, err := Open(dir, Config{Clock: stoppedClock()}, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %q before fault", got)
	}
	ft.budget = 12 // 8-byte frame header + 4 payload bytes of the next record
	err = l2.Append(encStr("torn-in-half-by-the-crash"))
	if !errors.Is(err, errInjected) {
		t.Fatalf("short-written append: err = %v, want injected fault", err)
	}
	// The log is poisoned: the tail holds a partial record.
	if err := l2.Append(encStr("after")); !errors.Is(err, errInjected) {
		t.Fatalf("append on poisoned log: err = %v, want sticky injected fault", err)
	}
	l2.Close()

	ft.budget = -1 // heal
	l3, got := collect(t, dir, Config{Clock: stoppedClock()})
	if len(got) != 2 || got[0] != "whole-one" || got[1] != "whole-two" {
		t.Fatalf("recovered %q, want the two whole records", got)
	}
	if l3.TornTruncations.Value() == 0 {
		t.Fatal("torn tail not counted")
	}
	if err := l3.Append(encStr("post-recovery")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l3.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l4, got := collect(t, dir, Config{Clock: stoppedClock()})
	defer l4.Close()
	if len(got) != 3 || got[2] != "post-recovery" {
		t.Fatalf("final state %q", got)
	}
}

// TestFaultShortWriteMidSnapshot: a short write anywhere in a
// compaction's snapshot — in a buffer flushed mid-snapshot, or in the
// final flush — fails Compact, removes compact.tmp and leaves the old
// segments byte for byte, and the log still replays every record.
func TestFaultShortWriteMidSnapshot(t *testing.T) {
	rec := strings.Repeat("r", 1000)
	const records = 1500 // ~1.5 MB: the snapshot buffer flushes once before the end
	for _, budget := range []int{100, 600 << 10, 1200 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			ft := &fault{budget: -1}
			installFault(t, ft)
			l, _ := collect(t, dir, Config{Clock: stoppedClock()})
			for i := 0; i < records; i++ {
				if err := l.Append(encStr(rec)); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			ft.budget = budget
			err := l.Compact(func(w *Snapshot) error {
				for i := 0; i < records; i++ {
					if err := w.Append(encStr(rec)); err != nil {
						return err
					}
				}
				return nil
			})
			if !errors.Is(err, errInjected) {
				t.Fatalf("Compact with a short write: err = %v, want injected fault", err)
			}
			ft.budget = -1
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Fatalf("failed compaction changed the log directory: %d files before, %d after", len(before), len(after))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, got := collect(t, dir, Config{Clock: stoppedClock()})
			defer l2.Close()
			if len(got) != records {
				t.Fatalf("replayed %d records after the failed compaction, want %d", len(got), records)
			}
		})
	}
}

// dirFiles maps every file name in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestFaultSyncFailureSticky: a failed fsync surfaces to the caller
// and poisons the log — "durable" cannot silently degrade to "maybe".
func TestFaultSyncFailureSticky(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ft := &fault{budget: -1}
	installFault(t, ft)
	l, _ := collect(t, dir, Config{Clock: stoppedClock()})
	if err := l.Append(encStr("synced-fine")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ft.syncFails = true
	if err := l.Append(encStr("sync-fails")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync with failing fsync: err = %v", err)
	}
	if err := l.Append(encStr("after")); !errors.Is(err, errInjected) {
		t.Fatalf("poisoned log accepted an append: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync on poisoned log: %v", err)
	}
	l.Close()
	ft.syncFails = false
	// Both records' bytes reached the file (the process didn't die);
	// only the durability guarantee failed. Recovery sees them whole.
	l2, got := collect(t, dir, Config{Clock: stoppedClock()})
	defer l2.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %q", got)
	}
}

// TestPowerLossLosesOnlyOpenWindow holds group commit (package doc,
// "Sync policy") to its promise across a power loss, which cuts every
// segment back to its last completed fsync. The log runs on a stopped
// Virtual clock, so a window closes only when the test advances it.
// Whatever the loss point, the log recovers a prefix of its appends,
// and the prefix holds every record a completed fsync covered: each
// window that closed before the loss, and each segment a rotation
// sealed. Only the open window's appends may go.
func TestPowerLossLosesOnlyOpenWindow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		segment int64
		// windows lists each window's appends. Every window but the
		// last closes with its fsync; the last closes only if
		// lastCloses is set.
		windows    []int
		lastCloses bool
	}{
		{"mid-window", 0, []int{5, 7, 4}, false},
		{"after-window-fsync", 0, []int{5, 7}, true},
		// 17-byte frames in 256-byte segments: the second window's
		// appends rotate twice and leave 9 records unsynced.
		{"after-rotation", 256, []int{9, 30}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			ft := &fault{budget: -1}
			installFault(t, ft)
			vc := stoppedClock()
			l, _ := collect(t, dir, Config{Clock: vc, SegmentSize: tc.segment})
			var want []string
			covered := 0 // appends a completed fsync covers
			for w, n := range tc.windows {
				for i := 0; i < n; i++ {
					rotations := l.Rotations.Value()
					s := fmt.Sprintf("rec-%d-%03d", w, i)
					if err := l.Append(encStr(s)); err != nil {
						t.Fatal(err)
					}
					want = append(want, s)
					if l.Rotations.Value() != rotations {
						covered = len(want) // rotation fsyncs before it seals
					}
				}
				if w < len(tc.windows)-1 || tc.lastCloses {
					base := l.Syncs.Value()
					vc.Advance(syncEvery)
					waitSyncs(t, l, base, 1)
					covered = len(want)
				}
			}
			ft.powerLoss(t)

			l2, got := collect(t, dir, Config{Clock: stoppedClock(), SegmentSize: tc.segment})
			defer l2.Close()
			if len(got) > len(want) {
				t.Fatalf("recovered %d records from %d appends", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d = %q, want %q: not a prefix of the appends", i, got[i], want[i])
				}
			}
			if len(got) < covered {
				t.Fatalf("recovered %d records, but an fsync had completed for %d", len(got), covered)
			}
			if lost := len(want) - len(got); tc.lastCloses != (lost == 0) {
				t.Fatalf("lost %d of the open window's %d appends", lost, len(want)-covered)
			}
		})
	}
}

// TestFaultRotationOpenFails: rotation seals the old segment, then the
// new segment's create fails — the append errors, and recovery reopens
// with every sealed record intact.
func TestFaultRotationOpenFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ft := &fault{budget: -1}
	installFault(t, ft)
	l, _ := collect(t, dir, Config{Clock: stoppedClock(), SegmentSize: 64})
	var want []string
	var rotErr error
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("no rotation within 100 appends")
		}
		s := fmt.Sprintf("rec-%02d", i)
		if l.Size()+int64(recHeaderSize+len(s)) >= 64 {
			// This append will trigger the rotation; make it fail.
			ft.openFails = true
		}
		err := l.Append(encStr(s))
		if err != nil {
			rotErr = err
			break
		}
		want = append(want, s)
	}
	if !errors.Is(rotErr, errInjected) {
		t.Fatalf("rotation failure: err = %v", rotErr)
	}
	l.Close()
	ft.openFails = false
	l2, got := collect(t, dir, Config{Clock: stoppedClock(), SegmentSize: 64})
	defer l2.Close()
	// The record whose append triggered the failed rotation WAS written
	// and sealed before rotation started, so it survives too.
	if len(got) != len(want)+1 {
		t.Fatalf("recovered %d records %q, want %d", len(got), got, len(want)+1)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := l2.Append(encStr("onwards")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// syncGate holds segment fsyncs while armed: each gated Sync announces
// itself on entered, then waits for release and returns what it sends.
type syncGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan error
}

type gatedFile struct {
	segFile
	g *syncGate
}

func (gf *gatedFile) Sync() error {
	if gf.g.armed.Load() {
		gf.g.entered <- struct{}{}
		if err := <-gf.g.release; err != nil {
			return err
		}
	}
	return gf.segFile.Sync()
}

// installGate swaps the segment-file hook for one whose fsyncs g holds.
func installGate(t *testing.T, g *syncGate) {
	t.Helper()
	orig := openSegFile
	openSegFile = func(path string, flag int) (segFile, error) {
		f, err := orig(path, flag)
		if err != nil {
			return nil, err
		}
		return &gatedFile{segFile: f, g: g}, nil
	}
	t.Cleanup(func() { openSegFile = orig })
}

// TestWindowSyncOffLock: the group-commit fsync runs without the log
// mutex, so an append issued while the disk is flushing returns at once
// instead of queueing behind the fsync — and a window fsync that fails
// still poisons the log.
func TestWindowSyncOffLock(t *testing.T) {
	g := &syncGate{entered: make(chan struct{}), release: make(chan error)}
	installGate(t, g)
	l, _ := collect(t, filepath.Join(t.TempDir(), "wal"), Config{})
	defer l.Close()
	awaitEntered := func() {
		t.Helper()
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the group-commit window never fsynced")
		}
	}

	g.armed.Store(true)
	if err := l.Append(encStr("first")); err != nil {
		t.Fatal(err)
	}
	awaitEntered() // the window's fsync is now blocked on the disk
	done := make(chan error, 1)
	go func() { done <- l.Append(encStr("second")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append during fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		g.armed.Store(false)
		g.release <- nil
		t.Fatal("append waited behind the group-commit fsync")
	}
	g.armed.Store(false)
	g.release <- nil
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the window: %v", err)
	}
	if l.Syncs.Value() < 2 {
		t.Fatalf("Syncs = %d, want the window's and Sync's", l.Syncs.Value())
	}

	g.armed.Store(true)
	if err := l.Append(encStr("third")); err != nil {
		t.Fatal(err)
	}
	awaitEntered()
	g.armed.Store(false)
	g.release <- errInjected
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync after a failed window fsync: %v, want the injected fault", err)
	}
	if err := l.Append(encStr("after")); !errors.Is(err, errInjected) {
		t.Fatalf("append after a failed window fsync: %v, want the log poisoned", err)
	}
}

// TestFaultSnapshotFailsAfterCut: a compaction whose snapshot write
// fails after appends went on past the cut removes compact.tmp and
// leaves every segment as it was; the log keeps appending, a later
// compaction succeeds, and a reopen replays every record in order.
func TestFaultSnapshotFailsAfterCut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ft := &fault{budget: -1}
	installFault(t, ft)
	cfg := Config{Clock: stoppedClock(), SegmentSize: 256}
	l, _ := collect(t, dir, cfg)
	var want []string
	add := func(s string) {
		t.Helper()
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}
	for i := 0; i < 30; i++ {
		add(fmt.Sprintf("before-cut-%02d", i))
	}
	w, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		add(fmt.Sprintf("after-cut-%02d", i))
	}
	before := dirFiles(t, dir)
	delete(before, "compact"+tmpSuffix)
	ft.budget = 40 // the snapshot's flush is cut short
	for i := 0; i < 5; i++ {
		if err := w.Append(encStr("snapshot-record")); err != nil {
			t.Fatal(err) // buffered: nothing reaches the file yet
		}
	}
	if err := w.Install(); !errors.Is(err, errInjected) {
		t.Fatalf("Install with a failed snapshot write: err = %v, want the injected fault", err)
	}
	ft.budget = -1
	if after := dirFiles(t, dir); !maps.Equal(after, before) {
		t.Fatalf("the failed compaction changed the segments: %d files before, %d after", len(before), len(after))
	}
	add("after-failed-compaction")
	if err := l.Compact(func(w *Snapshot) error {
		for _, s := range want {
			if err := w.Append(encStr(s)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("the compaction after the failed one: %v", err)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("Segments() = %d after an idle compaction, want 1", n)
	}
	add("after-compaction")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, dir, cfg)
	defer l2.Close()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}
