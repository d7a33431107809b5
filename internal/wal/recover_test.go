package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// segName is the file name of segment seq.
func segName(seq uint32) string { return fmt.Sprintf("%012d%s", seq, segSuffix) }

// frame returns rec framed as the log stores it.
func frame(rec []byte) []byte {
	var h [recHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(h[4:8], crc32Checksum(rec))
	return append(h[:], rec...)
}

// segHeader returns the 16-byte header of segment seq.
func segHeader(seq uint32, flags byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], seq)
	hdr[12] = flags
	return hdr[:]
}

// readerRunning reports whether a recovery reader goroutine is alive.
func readerRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("wal.(*Log).readSegment"))
}

// TestReplayErrorStopsReader: a replay callback error aborts Open with
// that error, no record after the failing one reaches the callback, and
// the reader goroutine is gone when Open returns, wherever in the log
// the error comes.
func TestReplayErrorStopsReader(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{SegmentSize: 1 << 10}
	l, _ := collect(t, dir, cfg)
	const records = 400
	for i := 0; i < records; i++ {
		if err := l.Append(encStr(fmt.Sprintf("%04d-%s", i, strings.Repeat("r", 90)))); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 10 {
		t.Fatalf("log has %d segments, want many", n)
	}
	l.Close()
	errStop := errors.New("stop here")
	for _, at := range []int{0, 1, 57, records / 2, records - 1} {
		seen := 0
		_, err := Open(dir, cfg, func(rec []byte) error {
			if want := fmt.Sprintf("%04d-", seen); !strings.HasPrefix(string(rec), want) {
				t.Fatalf("record %d = %.5q, want %q", seen, rec, want)
			}
			if seen == at {
				return errStop
			}
			seen++
			return nil
		})
		if !errors.Is(err, errStop) {
			t.Fatalf("at=%d: Open = %v, want the callback's error", at, err)
		}
		if seen != at {
			t.Fatalf("at=%d: the callback saw %d records before failing", at, seen)
		}
		if readerRunning() {
			t.Fatalf("at=%d: the reader goroutine outlived Open", at)
		}
	}
	// The failed opens changed nothing: the whole log still replays.
	l2, got := collect(t, dir, cfg)
	defer l2.Close()
	if len(got) != records {
		t.Fatalf("replayed %d records after the failed opens, want %d", len(got), records)
	}
}

// TestCorruptRecordMidSealedSegment: a bad checksum or a bad length in
// the middle of a sealed segment, several pieces into it, is ErrCorrupt,
// and no record from past the damage reaches the callback.
func TestCorruptRecordMidSealedSegment(t *testing.T) {
	const seg = 1 << 10
	var recs [][]byte
	var sealed []byte
	for i := 0; len(sealed) < 6*seg; i++ {
		r := []byte(fmt.Sprintf("%04d-%s", i, strings.Repeat("s", 60+i%50)))
		recs = append(recs, r)
		sealed = append(sealed, frame(r)...)
	}
	// The damaged record starts past the fourth piece's start.
	bad, off := 0, 0
	for off < 4*seg {
		off += recHeaderSize + len(recs[bad])
		bad++
	}
	for _, c := range []struct {
		name string
		at   int // byte offset in the record's frame
		xor  byte
	}{{"crc", recHeaderSize + 3, 0x20}, {"length", 1, 0x7f}} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			mut := append([]byte(nil), sealed...)
			mut[off+c.at] ^= c.xor
			files := map[uint32][]byte{
				1: append(segHeader(1, flagBase), mut...),
				2: append(segHeader(2, 0), frame([]byte("tail"))...),
			}
			for seq, b := range files {
				if err := os.WriteFile(filepath.Join(dir, segName(seq)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			_, err := Open(dir, Config{SegmentSize: seg}, func(rec []byte) error {
				if n >= bad || !bytes.Equal(rec, recs[n]) {
					t.Fatalf("replayed %.5q as record %d; the damage is at record %d", rec, n, bad)
				}
				n++
				return nil
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			if readerRunning() {
				t.Fatal("the reader goroutine outlived Open")
			}
		})
	}
}

// TestRecordLargerThanSegmentStraddles: a record larger than
// SegmentSize that starts part-way into a piece is read again into a
// buffer of its own, in a sealed segment and in the final one; every
// record replays intact and stays intact after Open, and a torn tail
// right after the large record is cut off.
func TestRecordLargerThanSegmentStraddles(t *testing.T) {
	const seg = 4 << 10
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{SegmentSize: seg}
	l, _ := collect(t, dir, cfg)
	var want []string
	add := func(s string) {
		t.Helper()
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			add(fmt.Sprintf("small-%d-%d-%s", round, i, strings.Repeat("x", 300)))
		}
		add(strings.Repeat(string(rune('A'+round)), 5*seg/2))
	}
	if n := l.Segments(); n != 3 {
		t.Fatalf("log has %d segments, want 3 (the last one empty)", n)
	}
	l.Close()
	// Tear the final segment: a large record, then half a record.
	last := filepath.Join(dir, segName(3))
	tail := append(frame([]byte(strings.Repeat("C", 3*seg))), frame([]byte("torn"))[:6]...)
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want = append(want, strings.Repeat("C", 3*seg))

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
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d changed after replay", i)
		}
		if len(want[i]) > seg && i > 0 {
			end := uintptr(unsafe.Pointer(unsafe.SliceData(got[i-1]))) + uintptr(len(got[i-1]))
			if uintptr(unsafe.Pointer(unsafe.SliceData(got[i]))) == end+recHeaderSize {
				t.Fatalf("record %d (%d bytes) shares the piece of the records before it", i, len(want[i]))
			}
		}
	}
	if l2.TornTruncations.Value() != 1 {
		t.Fatalf("TornTruncations = %d, want 1", l2.TornTruncations.Value())
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + recHeaderSize + 3*seg); fi.Size() != want {
		t.Fatalf("final segment is %d bytes after recovery, want %d", fi.Size(), want)
	}
}

// copyDir copies every file of dir into a fresh directory: the state a
// crash at this instant would leave on disk.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crash")
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range dirFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompactionCutWindows walks a compaction whose snapshot is written
// while appends go on. Appends after the cut land in a segment numbered
// past the snapshot. A crash anywhere before the install recovers the
// old segments followed by those appends; a crash after the rename but
// before the old segments are deleted, and a clean reopen after the
// install, recover the snapshot followed by them.
func TestCompactionCutWindows(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{SegmentSize: 64}
	l, _ := collect(t, dir, cfg)
	var old []string
	for i := 0; i < 20; i++ {
		old = append(old, fmt.Sprintf("old-%02d", i))
		if err := l.Append(encStr(old[i])); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := l.Segments()
	w, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, crashDir string, want []string) {
		t.Helper()
		l2, got := collect(t, crashDir, cfg)
		defer l2.Close()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: recovered %q, want %q", name, got, want)
		}
	}
	check("crash right after the cut", copyDir(t, dir), old)

	post := []string{"post-cut-1", "post-cut-2", "post-cut-3-and-longer-than-a-segment-of-sixty-four-bytes"}
	for _, s := range post {
		if err := l.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segName(w.seq))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("segment %d exists before the snapshot is installed: %v", w.seq, err)
	}
	snap := []string{"live-a", "live-b"}
	for _, s := range snap {
		if err := w.Append(encStr(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.bw.Flush(); err != nil { // a crash with the whole snapshot in compact.tmp
		t.Fatal(err)
	}
	preInstall := copyDir(t, dir)
	check("crash before the install", preInstall, append(append([]string(nil), old...), post...))

	if err := w.Install(); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n >= segsBefore || n < 2 {
		t.Fatalf("Segments() = %d after the install, want the snapshot and the post-cut ones (%d before)", n, segsBefore)
	}
	after := append(append([]string(nil), snap...), post...)
	// A crash after the rename, before the old segments are deleted: the
	// base supersedes them.
	base, err := os.ReadFile(filepath.Join(dir, segName(w.seq)))
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(preInstall, "compact"+tmpSuffix))
	if err := os.WriteFile(filepath.Join(preInstall, segName(w.seq)), base, 0o644); err != nil {
		t.Fatal(err)
	}
	check("crash before the old segments are deleted", preInstall, after)

	if err := l.Append(encStr("after-install")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("reopen after the install", dir, append(after, "after-install"))
}

// fuzzMaxRecord is the record bound FuzzWALRecover opens its logs with.
const fuzzMaxRecord = 1 << 10

// validPrefix decodes the longest run of whole, checksummed records at
// the start of b, independently of the log's reader: it returns the
// records and the length of b they span.
func validPrefix(b []byte) (recs []string, end int) {
	for len(b)-end >= recHeaderSize {
		n := binary.LittleEndian.Uint32(b[end:])
		if n > fuzzMaxRecord || uint64(len(b)-end-recHeaderSize) < uint64(n) {
			break
		}
		rec := b[end+recHeaderSize : end+recHeaderSize+int(n)]
		if crc32Checksum(rec) != binary.LittleEndian.Uint32(b[end+4:]) {
			break
		}
		recs = append(recs, string(rec))
		end += recHeaderSize + int(n)
	}
	return recs, end
}

// fixChecksums rewrites, in place, the checksum of every frame whose
// length fits in b, so the fuzzer can explore record lengths without
// having to hit CRCs.
func fixChecksums(b []byte) {
	for off := 0; len(b)-off >= recHeaderSize; {
		n := binary.LittleEndian.Uint32(b[off:])
		if n > fuzzMaxRecord || uint64(len(b)-off-recHeaderSize) < uint64(n) {
			return
		}
		binary.LittleEndian.PutUint32(b[off+4:], crc32Checksum(b[off+recHeaderSize:off+recHeaderSize+int(n)]))
		off += recHeaderSize + int(n)
	}
}

// FuzzWALRecover feeds arbitrary bytes after valid segment headers. With
// split inside data, data[:split] is a sealed segment and the rest the
// final one; otherwise data is the final segment alone. Open must never
// panic. It must replay exactly the longest valid record prefix that
// validPrefix finds, segment by segment, and never a record past a tear:
// damage in the sealed segment is ErrCorrupt with at most the records
// before it replayed, and a torn final segment is cut back to its valid
// prefix. Tiny segments make every log many pieces.
func FuzzWALRecover(f *testing.F) {
	var log []byte
	for _, r := range []string{"a", "", "record-two", strings.Repeat("x", 100), "z"} {
		log = append(log, frame([]byte(r))...)
	}
	badCRC := append([]byte(nil), log...)
	badCRC[30] ^= 1 // a payload byte of "record-two"
	f.Add(log, uint16(0), false)
	f.Add(badCRC, uint16(0), false)
	f.Add(badCRC, uint16(len(log)-2), false)
	f.Add(log, uint16(9), false)
	f.Add(log, uint16(len(log)-1), true)
	f.Add(log[:len(log)-3], uint16(27), false)
	f.Add(append(append([]byte(nil), log...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4), uint16(0), true)
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{200, 0, 0, 0, 0, 0, 0, 0, 1, 2}, uint16(0), true)
	f.Fuzz(func(t *testing.T, data []byte, split uint16, fixCRC bool) {
		sealed, final := []byte(nil), data
		if int(split) > 0 && int(split) < len(data) {
			sealed, final = append([]byte(nil), data[:split]...), append([]byte(nil), data[split:]...)
		} else {
			final = append([]byte(nil), data...)
		}
		if fixCRC {
			fixChecksums(sealed)
			fixChecksums(final)
		}
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seq := uint32(1)
		if sealed != nil {
			if err := os.WriteFile(filepath.Join(dir, segName(seq)), append(segHeader(seq, flagBase), sealed...), 0o644); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		lastPath := filepath.Join(dir, segName(seq))
		if err := os.WriteFile(lastPath, append(segHeader(seq, 0), final...), 0o644); err != nil {
			t.Fatal(err)
		}
		sealedRecs, sealedEnd := validPrefix(sealed)
		finalRecs, finalEnd := validPrefix(final)
		var got []string
		l, err := Open(dir, Config{SegmentSize: 64, MaxRecord: fuzzMaxRecord}, func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if sealedEnd < len(sealed) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damage at %d of a %d-byte sealed segment: Open = %v, want ErrCorrupt", sealedEnd, len(sealed), err)
			}
			if len(got) > len(sealedRecs) || strings.Join(got, "\x00") != strings.Join(sealedRecs[:len(got)], "\x00") {
				t.Fatalf("replayed %q before ErrCorrupt, not a prefix of the %d valid records", got, len(sealedRecs))
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		want := append(sealedRecs, finalRecs...)
		if len(got) != len(want) || strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("replayed %d records %q, want %d %q", len(got), got, len(want), want)
		}
		fi, err := os.Stat(lastPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(headerSize+finalEnd) {
			t.Fatalf("final segment is %d bytes after Open, want %d", fi.Size(), headerSize+finalEnd)
		}
		if torn := finalEnd < len(final); (l.TornTruncations.Value() == 1) != torn {
			t.Fatalf("TornTruncations = %d, torn tail %v", l.TornTruncations.Value(), torn)
		}
	})
}
