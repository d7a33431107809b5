package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sync"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/xmlsoap"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncInterval batches fsyncs: one per Config.SyncEvery window that
	// saw an append (group commit). The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append returns.
	SyncAlways
	// SyncNever never fsyncs explicitly; the OS flushes on its own
	// schedule. Fastest, and loses up to the OS's writeback window on
	// power failure — process crashes lose nothing in any mode.
	SyncNever
)

// Config tunes a Log.
type Config struct {
	// Clock drives the group-commit window. Default clock.Wall.
	Clock clock.Clock
	// SegmentSize is the size at which the active segment rotates.
	// Default 4 MiB.
	SegmentSize int64
	// Sync selects the fsync policy. Default SyncInterval.
	Sync SyncPolicy
	// SyncEvery is the group-commit window for SyncInterval. Default
	// 5ms.
	SyncEvery time.Duration
	// MaxRecord bounds one record's payload; larger appends fail and
	// larger on-disk lengths are treated as corruption. Default 16 MiB.
	MaxRecord int
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 4 << 20
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 5 * time.Millisecond
	}
	if c.MaxRecord <= 0 {
		c.MaxRecord = 16 << 20
	}
	return c
}

// Errors returned by the log.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCorrupt marks unrecoverable damage: a bad record or header in
	// a segment that is not the writable tail, where truncation would
	// silently drop durable state.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrTooLarge is returned for records over Config.MaxRecord.
	ErrTooLarge = errors.New("wal: record exceeds MaxRecord")
)

const (
	magic         = "WSDWAL01"
	headerSize    = 16
	recHeaderSize = 8
	flagBase      = 0x01
	segSuffix     = ".wal"
	tmpSuffix     = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segFile is the surface an active segment needs from its file. Tests
// swap openSegFile to inject write and sync faults.
type segFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openSegFile opens a segment file for writing; a package-level hook so
// the fault-injection tests can wrap the file with failing writers.
var openSegFile = func(path string, flag int) (segFile, error) {
	return os.OpenFile(path, flag, 0o644)
}

// segment is one on-disk segment file.
type segment struct {
	seq  uint32
	path string
	size int64
	f    segFile // non-nil only for the active (last) segment
}

// Log is a segmented write-ahead log. All methods are safe for
// concurrent use.
type Log struct {
	dir string
	cfg Config

	mu      sync.Mutex
	active  segment
	retired []segment // sealed segments, ascending seq, excluding active
	err     error     // sticky: set on a failed write/sync, poisons the log
	closed  bool
	dirty   bool // bytes written since the last fsync began

	// syncing marks a group-commit fsync running without mu held;
	// syncDone (on mu) is broadcast when it ends. Anything that closes
	// the active file or must not return before earlier appends are
	// synced waits it out first (waitSyncLocked).
	syncing  bool
	syncDone *sync.Cond

	syncTimer *clock.Timer
	syncArmed bool

	// Counters for the evaluation harness and the bench snapshot.
	Appends          stats.Counter
	Syncs            stats.Counter
	Rotations        stats.Counter
	Compactions      stats.Counter
	TornTruncations  stats.Counter // recovery truncations of a torn tail
	RecoveredRecords stats.Counter // records replayed by Open
}

// Open opens (creating if needed) the log in dir and replays every
// whole record into the replay callback in append order. The record
// slice aliases a read buffer the log never reuses or writes: the
// callback may retain it, read-only, and must never modify it. A replay
// error aborts Open.
func Open(dir string, cfg Config, replay func(rec []byte) error) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	l := &Log{dir: dir, cfg: cfg}
	l.syncDone = sync.NewCond(&l.mu)
	segs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.createSegment(1, flagBase); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Drop a torn final segment: a crash between creating the file and
	// completing its 16-byte header leaves nothing recoverable in it. At
	// most one segment can be in that state (rotation seals the previous
	// segment before creating the next), so a second bad header is real
	// corruption, caught by the full-header pass below.
	if last := &segs[len(segs)-1]; true {
		flags, err := readSegHeader(last.path, last.seq)
		switch {
		case err == nil:
			last.flags = flags
		case errors.Is(err, errTornHeader):
			l.TornTruncations.Inc()
			if rmErr := os.Remove(last.path); rmErr != nil {
				return nil, fmt.Errorf("wal: drop torn segment %s: %w", last.path, rmErr)
			}
			segs = segs[:len(segs)-1]
		default:
			return nil, err
		}
	}
	if len(segs) == 0 {
		if err := l.createSegment(1, flagBase); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Every remaining segment must carry a valid header; the one
	// legitimately torn header was handled above.
	for i := range segs {
		flags, err := readSegHeader(segs[i].path, segs[i].seq)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, segs[i].path)
		}
		segs[i].flags = flags
	}
	// Start replay at the newest snapshot base; anything older is
	// superseded state (an interrupted compaction's leftovers).
	start := 0
	for i := range segs {
		if segs[i].flags&flagBase != 0 {
			start = i
		}
	}
	for _, s := range segs[:start] {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("wal: remove retired %s: %w", s.path, err)
		}
	}
	segs = segs[start:]
	for i := range segs {
		size, err := l.replaySegment(segs[i].path, i == len(segs)-1, replay)
		if err != nil {
			return nil, err
		}
		segs[i].size = size
	}
	// Reopen the last segment as the writable tail.
	last := segs[len(segs)-1]
	f, err := openSegFile(last.path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen %s: %w", last.path, err)
	}
	l.active = segment{seq: last.seq, path: last.path, size: last.size, f: f}
	for _, s := range segs[:len(segs)-1] {
		l.retired = append(l.retired, segment{seq: s.seq, path: s.path, size: s.size})
	}
	return l, nil
}

// scannedSeg is a directory entry during Open.
type scannedSeg struct {
	seq   uint32
	path  string
	size  int64
	flags byte
}

// scanDir lists segment files ascending by sequence, deleting leftover
// temporaries from an interrupted compaction.
func (l *Log) scanDir() ([]scannedSeg, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", l.dir, err)
	}
	var segs []scannedSeg
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// An interrupted compaction's half-written snapshot: the
			// rename never happened, so the old segments are still the
			// truth and the temporary is garbage.
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return nil, fmt.Errorf("wal: remove stale %s: %w", name, err)
			}
			continue
		}
		seqStr, ok := strings.CutSuffix(name, segSuffix)
		if !ok {
			continue
		}
		seq, err := strconv.ParseUint(seqStr, 10, 32)
		if err != nil || seq == 0 {
			continue
		}
		segs = append(segs, scannedSeg{seq: uint32(seq), path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// errTornHeader marks a final segment whose header never finished.
var errTornHeader = errors.New("wal: torn segment header")

// readSegHeader validates a segment's 16-byte header and returns its
// flags. A short or mismatched header is errTornHeader; the caller
// decides whether that is recoverable (final segment) or ErrCorrupt.
func readSegHeader(path string, wantSeq uint32) (byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, errTornHeader
	}
	if string(hdr[:8]) != magic {
		return 0, errTornHeader
	}
	if binary.LittleEndian.Uint32(hdr[8:12]) != wantSeq {
		return 0, errTornHeader
	}
	return hdr[12], nil
}

// replaySegment replays one segment's records. It reads the segment into
// buffers the log never reuses or writes, so replay callbacks may retain
// the records they are handed. A buffer holds about Config.SegmentSize
// bytes of whole records: a sealed segment fits in one, and a snapshot
// base larger than that is read in record-aligned pieces, so a retained
// record pins no more than its piece. On the final (writable) segment a
// torn or corrupt tail is truncated away; anywhere else it is
// ErrCorrupt. Returns the segment's valid size.
func (l *Log) replaySegment(path string, isLast bool, replay func([]byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	size := fi.Size()
	var buf []byte            // the current piece
	base := int64(headerSize) // file offset of buf[0]
	off := int64(headerSize)  // file offset of the next record
	for off < size {
		rest := buf[off-base:]
		need := recHeaderSize
		if len(rest) >= recHeaderSize {
			n := int(binary.LittleEndian.Uint32(rest[0:4]))
			if n > l.cfg.MaxRecord {
				return l.truncateTail(path, off, isLast)
			}
			need += n
		}
		if need > len(rest) {
			if base+int64(len(buf)) == size {
				return l.truncateTail(path, off, isLast)
			}
			// The record runs past the current piece (if any): read the
			// next one from the record's start. Bytes of it the old
			// piece holds stay unused there.
			left := size - off
			want := max(l.cfg.SegmentSize, int64(need))
			if left < want+want/2 {
				want = left
			}
			buf = make([]byte, want)
			if _, err := f.ReadAt(buf, off); err != nil {
				return 0, fmt.Errorf("wal: read %s: %w", path, err)
			}
			base = off
			continue
		}
		payload := rest[recHeaderSize:need:need]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return l.truncateTail(path, off, isLast)
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				return 0, fmt.Errorf("wal: replay %s at %d: %w", path, off, err)
			}
		}
		l.RecoveredRecords.Inc()
		off += int64(need)
	}
	return off, nil
}

// truncateTail recovers a torn tail on the final segment by cutting the
// file back to the last whole record; on any other segment the damage
// is unrecoverable.
func (l *Log) truncateTail(path string, off int64, isLast bool) (int64, error) {
	if !isLast {
		return 0, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, path, off)
	}
	if err := os.Truncate(path, off); err != nil {
		return 0, fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	l.TornTruncations.Inc()
	return off, nil
}

// createSegment makes a fresh segment file (header written and synced)
// and installs it as the active tail.
func (l *Log) createSegment(seq uint32, flags byte) error {
	path := l.segPath(seq)
	f, err := openSegFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", path, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], seq)
	hdr[12] = flags
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync header %s: %w", path, err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = segment{seq: seq, path: path, size: headerSize, f: f}
	return nil
}

func (l *Log) segPath(seq uint32) string {
	return filepath.Join(l.dir, fmt.Sprintf("%012d%s", seq, segSuffix))
}

// syncDir flushes directory metadata so freshly created or renamed
// segment files survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}

// Append writes one record. The encode callback must append the record
// payload to dst and return the extended slice — the payload is
// assembled directly in the log's pooled scratch (one copy, zero
// steady-state allocations) and leaves in one write. The record is
// durable per the configured SyncPolicy when Append returns.
//
// A write or sync failure is returned AND poisons the log: the tail may
// hold a partial record, so every later Append fails with the same
// error until the log is reopened (recovery truncates the tear).
func (l *Log) Append(encode func(dst []byte) []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	buf := xmlsoap.GetBuffer()
	err := l.appendLocked(buf, encode)
	xmlsoap.PutBuffer(buf)
	if err != nil {
		return err
	}
	l.Appends.Inc()
	return l.commitLocked()
}

// appendLocked encodes into scratch and writes the framed record to the
// active segment.
func (l *Log) appendLocked(scratch *xmlsoap.Buffer, encode func(dst []byte) []byte) error {
	b := append(scratch.B, 0, 0, 0, 0, 0, 0, 0, 0)
	b = encode(b)
	scratch.B = b
	payload := b[recHeaderSize:]
	if len(payload) > l.cfg.MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, crcTable))
	n, err := l.active.f.Write(b)
	l.active.size += int64(n)
	l.dirty = l.dirty || n > 0
	if err != nil {
		l.err = fmt.Errorf("wal: append %s: %w", l.active.path, err)
		return l.err
	}
	return nil
}

// commitLocked applies the sync policy and rotates a full segment.
func (l *Log) commitLocked() error {
	switch l.cfg.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		l.armSyncLocked()
	}
	if l.active.size >= l.cfg.SegmentSize {
		return l.rotateLocked()
	}
	return nil
}

// syncLocked fsyncs the active segment if it has unsynced bytes. An
// fsync already in flight is waited out first (it may fail and poison
// the log, and it covers bytes dirty no longer shows).
func (l *Log) syncLocked() error {
	l.waitSyncLocked()
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if err := l.active.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync %s: %w", l.active.path, err)
		return l.err
	}
	l.dirty = false
	l.Syncs.Inc()
	return nil
}

// armSyncLocked schedules the group-commit fsync once per window. One
// AfterFunc timer is reused via Reset for the log's lifetime.
func (l *Log) armSyncLocked() {
	if l.syncArmed {
		return
	}
	l.syncArmed = true
	if l.syncTimer == nil {
		l.syncTimer = l.cfg.Clock.AfterFunc(l.cfg.SyncEvery, l.syncWindow)
		return
	}
	l.syncTimer.Reset(l.cfg.SyncEvery)
}

// syncWindow is the group-commit timer body. The fsync runs with mu
// released, so appends keep writing (and re-mark the log dirty for the
// next window) while the disk flushes; rotation, compaction, Sync and
// Close wait for it through syncDone. A failed fsync still poisons the
// log.
func (l *Log) syncWindow() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncArmed = false
	l.waitSyncLocked()
	if l.closed || l.err != nil || !l.dirty {
		return
	}
	l.dirty = false
	l.syncing = true
	f, path := l.active.f, l.active.path
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	l.syncing = false
	l.syncDone.Broadcast()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: sync %s: %w", path, err)
		}
		return
	}
	l.Syncs.Inc()
}

// waitSyncLocked blocks until no fsync runs outside mu. It releases mu
// while it waits, so callers re-check any state they read before.
func (l *Log) waitSyncLocked() {
	for l.syncing {
		l.syncDone.Wait()
	}
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one.
func (l *Log) rotateLocked() error {
	l.waitSyncLocked()
	switch {
	case l.err != nil:
		return l.err
	case l.closed, l.active.size < l.cfg.SegmentSize:
		// While this appender waited, Close synced and sealed the
		// segment, or another appender rotated it.
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: close %s: %w", l.active.path, err)
		return l.err
	}
	sealed := l.active
	sealed.f = nil
	l.active.f = nil // don't double-close if the next create fails
	if err := l.createSegment(sealed.seq+1, 0); err != nil {
		l.err = err
		return err
	}
	l.retired = append(l.retired, sealed)
	l.Rotations.Inc()
	return nil
}

// Sync forces an fsync of any unsynced appends, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

// snapshotBuffer sizes the writer that gathers a compaction's records
// into large writes: Compact runs with the log locked.
const snapshotBuffer = 1 << 20

// Snapshot receives the live state during Compact. Append has the same
// encode contract as Log.Append.
type Snapshot struct {
	l       *Log
	bw      *bufio.Writer
	path    string
	size    int64
	scratch *xmlsoap.Buffer
	err     error
}

// Append writes one snapshot record.
func (w *Snapshot) Append(encode func(dst []byte) []byte) error {
	if w.err != nil {
		return w.err
	}
	w.scratch.B = w.scratch.B[:0]
	b := append(w.scratch.B, 0, 0, 0, 0, 0, 0, 0, 0)
	b = encode(b)
	w.scratch.B = b
	payload := b[recHeaderSize:]
	if len(payload) > w.l.cfg.MaxRecord {
		w.err = fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
		return w.err
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, crcTable))
	n, err := w.bw.Write(b)
	w.size += int64(n)
	if err != nil {
		w.err = fmt.Errorf("wal: snapshot write %s: %w", w.path, err)
	}
	return w.err
}

// Compact rewrites live state into a fresh snapshot-base segment and
// deletes every retired one. The snapshot callback receives a Snapshot
// writer and must append every record the recovered state needs; it
// runs with the log locked, so appends from other goroutines wait.
//
// Crash safety: the snapshot is built under a temporary name, fsynced,
// and renamed into place before old segments are removed. Recovery
// ignores temporaries and replays from the newest base segment, so a
// crash anywhere in compaction yields either the old state or the
// complete snapshot.
func (l *Log) Compact(snapshot func(w *Snapshot) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The old active file is closed below; no fsync may still run on it.
	l.waitSyncLocked()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	newSeq := l.active.seq + 1
	tmpPath := filepath.Join(l.dir, "compact"+tmpSuffix)
	f, err := openSegFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmpPath, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], newSeq)
	hdr[12] = flagBase
	w := &Snapshot{l: l, bw: bufio.NewWriterSize(f, snapshotBuffer), path: tmpPath, size: headerSize, scratch: xmlsoap.GetBuffer()}
	w.bw.Write(hdr[:]) // into an empty buffer: it cannot fail
	if err := snapshot(w); err != nil && w.err == nil {
		w.err = err
	}
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("wal: snapshot write %s: %w", tmpPath, err)
		}
	}
	if w.err == nil {
		if err := f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: snapshot sync: %w", err)
		}
	}
	xmlsoap.PutBuffer(w.scratch)
	if cerr := f.Close(); cerr != nil && w.err == nil {
		w.err = fmt.Errorf("wal: snapshot close: %w", cerr)
	}
	if w.err != nil {
		os.Remove(tmpPath)
		return w.err
	}
	newPath := l.segPath(newSeq)
	if err := os.Rename(tmpPath, newPath); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The snapshot is durable and discoverable; everything older is
	// garbage now.
	old := l.active
	if err := old.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: close %s: %w", old.path, err)
		return l.err
	}
	for _, s := range l.retired {
		os.Remove(s.path)
	}
	os.Remove(old.path)
	l.retired = nil
	nf, err := openSegFile(newPath, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		l.err = fmt.Errorf("wal: reopen snapshot %s: %w", newPath, err)
		return l.err
	}
	l.active = segment{seq: newSeq, path: newPath, size: w.size, f: nf}
	l.dirty = false
	l.Compactions.Inc()
	return nil
}

// Size returns the total bytes across all live segments (headers
// included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.active.size
	for _, s := range l.retired {
		total += s.size
	}
	return total
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.retired) + 1
}

// Close syncs outstanding appends and closes the active segment. The
// log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.syncTimer != nil {
		l.syncTimer.Stop()
	}
	l.waitSyncLocked()
	var err error
	if l.err == nil {
		err = l.syncLocked()
	}
	if l.active.f != nil {
		if cerr := l.active.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
