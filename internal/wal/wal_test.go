package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
)

// encStr returns an encode callback appending s — the shape store uses.
func encStr(s string) func([]byte) []byte {
	return func(dst []byte) []byte { return append(dst, s...) }
}

// stoppedClock returns a Virtual clock with its pump stopped: the
// group-commit window fires only when the test calls Advance, so a test
// that counts fsyncs or injects faults has no timer goroutine racing it.
func stoppedClock() *clock.Virtual {
	vc := clock.NewVirtual(time.Unix(0, 0))
	vc.Stop()
	return vc
}

// collect opens dir and returns every replayed record as a string.
func collect(t *testing.T, dir string, cfg Config) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(dir, cfg, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, got := collect(t, dir, Config{})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := []string{"alpha", "beta", "", "gamma-with-a-longer-payload"}
	for _, s := range want {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatalf("Append(%q): %v", s, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, got := collect(t, dir, Config{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (%q)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n := l2.RecoveredRecords.Value(); n != int64(len(want)) {
		t.Fatalf("RecoveredRecords = %d, want %d", n, len(want))
	}
}

func TestOpenMissingParentDirFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no", "such", "parent")
	if _, err := Open(dir, Config{}, nil); err == nil {
		t.Fatal("Open under a missing parent succeeded; want error")
	}
}

func TestAppendTooLarge(t *testing.T) {
	l, _ := collect(t, filepath.Join(t.TempDir(), "wal"), Config{MaxRecord: 16})
	defer l.Close()
	err := l.Append(func(dst []byte) []byte { return append(dst, make([]byte, 17)...) })
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
	// An oversized record must not poison the log: nothing was written.
	if err := l.Append(encStr("ok")); err != nil {
		t.Fatalf("append after ErrTooLarge: %v", err)
	}
}

func TestClosedLog(t *testing.T) {
	l, _ := collect(t, filepath.Join(t.TempDir(), "wal"), Config{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(encStr("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
}

// TestTornTailEveryByteOffset is the crash-safety sweep: a log cut at
// EVERY possible byte length must recover exactly the records whose
// frames fit whole before the cut, and the recovered log must accept
// and persist new appends.
func TestTornTailEveryByteOffset(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, base, Config{})
	records := []string{"first-record", "second", "third-one-is-longest-of-all", "4"}
	var boundaries []int64 // file size after each whole record
	boundaries = append(boundaries, headerSize)
	for _, s := range records {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+int64(recHeaderSize+len(s)))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segPath := filepath.Join(base, fmt.Sprintf("%012d%s", 1, segSuffix))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if int64(len(full)) != boundaries[len(boundaries)-1] {
		t.Fatalf("segment is %d bytes, want %d", len(full), boundaries[len(boundaries)-1])
	}
	// wholeBefore(cut) = count of records fully on disk at that length.
	wholeBefore := func(cut int) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= int64(cut) {
				n = i
			}
		}
		return n
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), "cut")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%012d%s", 1, segSuffix)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := collect(t, dir, Config{})
		want := records[:wholeBefore(cut)]
		if len(got) != len(want) {
			t.Fatalf("cut=%d: recovered %d records (%q), want %d", cut, len(got), got, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// The recovered log must be writable and the write durable.
		if err := l2.Append(encStr("post-crash")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		l3, got := collect(t, dir, Config{})
		if len(got) != len(want)+1 || got[len(got)-1] != "post-crash" {
			t.Fatalf("cut=%d: second recovery got %q, want %q + post-crash", cut, got, want)
		}
		l3.Close()
	}
}

// TestCorruptTailBitFlip flips every byte of the LAST record in turn;
// recovery must drop exactly that record (checksum mismatch) and keep
// the rest.
func TestCorruptTailBitFlip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, base, Config{})
	for _, s := range []string{"keep-a", "keep-b", "doomed-tail-record"} {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segPath := filepath.Join(base, fmt.Sprintf("%012d%s", 1, segSuffix))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(full) - recHeaderSize - len("doomed-tail-record")
	for i := lastStart; i < len(full); i++ {
		dir := filepath.Join(t.TempDir(), "flip")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%012d%s", 1, segSuffix)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := collect(t, dir, Config{})
		// Flipping a length byte can make the frame claim more bytes
		// than remain (torn) or fewer (checksum covers wrong span) —
		// either way the tail record must vanish and the prefix hold.
		if len(got) != 2 || got[0] != "keep-a" || got[1] != "keep-b" {
			t.Fatalf("flip@%d: recovered %q, want [keep-a keep-b]", i, got)
		}
		if l2.TornTruncations.Value() == 0 {
			t.Fatalf("flip@%d: no torn truncation recorded", i)
		}
		l2.Close()
	}
}

// TestCorruptMiddleSegmentFatal: damage in a sealed (non-final) segment
// is NOT recoverable — truncating there would silently drop the
// segments after it.
func TestCorruptMiddleSegmentFatal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// Tiny segments force a rotation per record.
	l, _ := collect(t, dir, Config{SegmentSize: headerSize + 1})
	for _, s := range []string{"seg-one", "seg-two", "seg-three"} {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("Segments() = %d, want >= 3", n)
	}
	l.Close()
	seg1 := filepath.Join(dir, fmt.Sprintf("%012d%s", 1, segSuffix))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Config{}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt sealed segment: %v, want ErrCorrupt", err)
	}
}

func TestRotationReplaysAcrossSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{SegmentSize: 64})
	var want []string
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("record-%03d", i)
		want = append(want, s)
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Rotations.Value() == 0 {
		t.Fatal("no rotations with a 64-byte segment size")
	}
	segs := l.Segments()
	if segs < 2 {
		t.Fatalf("Segments() = %d, want >= 2", segs)
	}
	l.Close()
	l2, got := collect(t, dir, Config{SegmentSize: 64})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if l2.Segments() != segs {
		t.Fatalf("reopened Segments() = %d, want %d", l2.Segments(), segs)
	}
}

func TestCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{SegmentSize: 64})
	for i := 0; i < 40; i++ {
		if err := l.Append(encStr(fmt.Sprintf("retired-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := l.Size()
	live := []string{"live-a", "live-b", "live-c"}
	if err := l.Compact(func(w *Snapshot) error {
		for _, s := range live {
			if err := w.Append(encStr(s)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if l.Segments() != 1 {
		t.Fatalf("Segments() after compact = %d, want 1", l.Segments())
	}
	if l.Size() >= sizeBefore {
		t.Fatalf("Size() after compact = %d, not below %d", l.Size(), sizeBefore)
	}
	// Appends continue into the snapshot segment.
	if err := l.Append(encStr("after-compact")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got := collect(t, dir, Config{})
	defer l2.Close()
	want := append(append([]string(nil), live...), "after-compact")
	if len(got) != len(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCompactionCrashLeftovers: an interrupted compaction leaves either
// a stale .tmp (pre-rename — ignored and deleted) or a base segment
// alongside stale older segments (post-rename — older segments are
// superseded and deleted, replay starts at the base).
// TestBaseSnapshotReadInPieces: a snapshot base many times SegmentSize
// replays from record-aligned read buffers of about that size, one
// record larger than a whole buffer included, and every record stays
// intact after Open returns: the callback may retain what it is handed.
func TestBaseSnapshotReadInPieces(t *testing.T) {
	const seg = 4 << 10
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{SegmentSize: seg}
	var want []string
	for i := 0; i < 200; i++ {
		n := 50 + i*397%700
		if i == 100 {
			n = 3 * seg
		}
		want = append(want, strings.Repeat(string(rune('a'+i%26)), n))
	}
	l, _ := collect(t, dir, cfg)
	err := l.Compact(func(w *Snapshot) error {
		for _, r := range want {
			if err := w.Append(encStr(r)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l2, err := Open(dir, cfg, func(rec []byte) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	// Records that follow each other in one buffer sit one frame header
	// apart; anywhere else a new buffer begins.
	pieces, span := 1, recHeaderSize+len(got[0])
	for i := range got {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d changed after replay", i)
		}
		if i == 0 {
			continue
		}
		end := uintptr(unsafe.Pointer(unsafe.SliceData(got[i-1]))) + uintptr(len(got[i-1]))
		if uintptr(unsafe.Pointer(unsafe.SliceData(got[i]))) == end+recHeaderSize {
			span += recHeaderSize + len(got[i])
			continue
		}
		pieces++
		span = recHeaderSize + len(got[i])
		if span > seg+seg/2 && len(got[i]) != 3*seg {
			t.Fatalf("a read buffer holds %d bytes, want about %d", span, seg)
		}
	}
	if size := l2.Size(); int64(pieces) < size/(2*seg) {
		t.Fatalf("a %d-byte base replayed from %d buffers, want pieces of about %d bytes", size, pieces, seg)
	}
}

func TestCompactionCrashLeftovers(t *testing.T) {
	t.Run("pre-rename tmp", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		l, _ := collect(t, dir, Config{})
		if err := l.Append(encStr("kept")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		tmp := filepath.Join(dir, "compact"+tmpSuffix)
		if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := collect(t, dir, Config{})
		defer l2.Close()
		if len(got) != 1 || got[0] != "kept" {
			t.Fatalf("recovered %q, want [kept]", got)
		}
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale tmp still present: %v", err)
		}
	})
	t.Run("post-rename stale segments", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		// Build stale pre-compaction segments 1..3.
		l, _ := collect(t, dir, Config{SegmentSize: headerSize + 1})
		for _, s := range []string{"stale-1", "stale-2"} {
			if err := l.Append(encStr(s)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		// Hand-write segment 4 with the base flag: the renamed snapshot
		// of a compaction that crashed before deleting 1..3.
		var seg []byte
		var hdr [headerSize]byte
		copy(hdr[:8], magic)
		binary.LittleEndian.PutUint32(hdr[8:12], 4)
		hdr[12] = flagBase
		seg = append(seg, hdr[:]...)
		payload := []byte("snapshot-state")
		var rh [recHeaderSize]byte
		binary.LittleEndian.PutUint32(rh[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:8], crc32Checksum(payload))
		seg = append(seg, rh[:]...)
		seg = append(seg, payload...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%012d%s", 4, segSuffix)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := collect(t, dir, Config{})
		defer l2.Close()
		if len(got) != 1 || got[0] != "snapshot-state" {
			t.Fatalf("recovered %q, want [snapshot-state]", got)
		}
		if l2.Segments() != 1 {
			t.Fatalf("Segments() = %d, want 1 (stale ones deleted)", l2.Segments())
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 {
			t.Fatalf("%d files left in dir, want 1", len(entries))
		}
	})
}

// TestTornSegmentHeaderDropped: a crash between creating a segment file
// and writing its header leaves a header-less tail segment; Open drops
// it and resumes on the previous one.
func TestTornSegmentHeaderDropped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{})
	if err := l.Append(encStr("survives")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate the torn rotation: an empty segment 2.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%012d%s", 2, segSuffix)), []byte("WSDW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, dir, Config{})
	defer l2.Close()
	if len(got) != 1 || got[0] != "survives" {
		t.Fatalf("recovered %q, want [survives]", got)
	}
	if l2.TornTruncations.Value() == 0 {
		t.Fatal("torn header drop not counted")
	}
	if err := l2.Append(encStr("again")); err != nil {
		t.Fatalf("append after torn-header drop: %v", err)
	}
}

// waitSyncs polls (real time) for the group-commit goroutine to bring
// the sync counter to want — AfterFunc callbacks run on their own
// goroutine even under the Virtual clock.
func waitSyncs(t *testing.T, l *Log, base, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if l.Syncs.Value()-base == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("syncs = %d, want %d", l.Syncs.Value()-base, want)
}

// TestSyncPolicyInterval drives the group-commit window on the Virtual
// clock: many appends inside one window cost one fsync, fired exactly
// when the window elapses; an idle window costs none.
func TestSyncPolicyInterval(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{Clock: vc})
	defer l.Close()
	base := l.Syncs.Value()
	for i := 0; i < 10; i++ {
		if err := l.Append(encStr("batched")); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Syncs.Value() - base; n != 0 {
		t.Fatalf("synced %d times before the window elapsed", n)
	}
	vc.Advance(syncEvery)
	waitSyncs(t, l, base, 1) // group commit: 1 fsync for 10 appends
	// Idle window: timer is not re-armed without a dirty append.
	vc.Advance(50 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if n := l.Syncs.Value() - base; n != 1 {
		t.Fatalf("idle windows synced: %d total", n)
	}
	// Next append re-arms.
	if err := l.Append(encStr("later")); err != nil {
		t.Fatal(err)
	}
	vc.Advance(syncEvery)
	waitSyncs(t, l, base, 2)
}

// TestExplicitSyncClearsWindow: Sync() mid-window flushes immediately;
// the timer firing afterwards finds nothing dirty and is a no-op.
func TestExplicitSyncClearsWindow(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := collect(t, dir, Config{Clock: vc})
	defer l.Close()
	base := l.Syncs.Value()
	if err := l.Append(encStr("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := l.Syncs.Value() - base; n != 1 {
		t.Fatalf("explicit Sync: %d syncs, want 1", n)
	}
	vc.Advance(syncEvery)
	time.Sleep(20 * time.Millisecond)
	if n := l.Syncs.Value() - base; n != 1 {
		t.Fatalf("timer after explicit Sync re-synced: %d total", n)
	}
}

func crc32Checksum(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}
