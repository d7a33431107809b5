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
	// changed (on mu) is broadcast when it ends, and when a compaction
	// ends. Anything that closes the active file or must not return
	// before earlier appends are synced waits the fsync out first
	// (waitSyncLocked).
	syncing bool
	changed *sync.Cond

	// snapSeq is the sequence number a compaction in flight reserved
	// for its snapshot, 0 when none runs. The snapshot replaces every
	// segment below it; the first append after the cut rotates past it.
	snapSeq uint32

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
// whole record into the replay callback in append order. The callback
// runs on the caller's goroutine, one record at a time, while a reader
// goroutine reads and checksums the pieces ahead of it. The record
// slice aliases a read buffer the log never reuses or writes: the
// callback may retain it, read-only, and must never modify it. A replay
// error aborts Open; the reader is stopped and joined before Open
// returns.
func Open(dir string, cfg Config, replay func(rec []byte) error) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	l := &Log{dir: dir, cfg: cfg}
	l.changed = sync.NewCond(&l.mu)
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
	if err := l.replay(segs, replay); err != nil {
		return nil, err
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

// piece is a run of whole, checksummed records that the reader hands
// to the replaying goroutine. A segment's last piece also carries the
// segment's valid size.
type piece struct {
	seg  int    // index of the segment in Open's list
	off  int64  // file offset of recs[0]
	recs []byte // framed records, every one verified
	end  int64  // > 0 on the segment's last piece: its valid size
	torn bool   // the segment is cut back to end (the final segment's torn tail)
	err  error  // the reader failed; replay ends here
}

// replay runs recovery as two goroutines: a reader that reads each
// segment into fresh buffers and verifies every record's length and
// checksum, and the calling goroutine, which runs the callback over the
// verified pieces in log order and sets each segment's valid size. The
// reader runs at most two pieces ahead, and is stopped and joined before
// replay returns, on success and on error alike.
func (l *Log) replay(segs []scannedSeg, fn func(rec []byte) error) error {
	pieces := make(chan piece, 2)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(pieces)
		emit := func(p piece) bool {
			select {
			case pieces <- p:
				return p.err == nil
			case <-stop:
				return false
			}
		}
		for i := range segs {
			if !l.readSegment(i, segs[i].path, i == len(segs)-1, emit) {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for p := range pieces {
		if p.err != nil {
			return p.err
		}
		path := segs[p.seg].path
		n := int64(0)
		for b, off := p.recs, p.off; len(b) > 0; n++ {
			size := recHeaderSize + int(binary.LittleEndian.Uint32(b))
			if fn != nil {
				if err := fn(b[recHeaderSize:size:size]); err != nil {
					l.RecoveredRecords.Add(n)
					return fmt.Errorf("wal: replay %s at %d: %w", path, off, err)
				}
			}
			b, off = b[size:], off+int64(size)
		}
		l.RecoveredRecords.Add(n)
		if p.end == 0 {
			continue
		}
		segs[p.seg].size = p.end
		if p.torn {
			if err := os.Truncate(path, p.end); err != nil {
				return fmt.Errorf("wal: truncate %s: %w", path, err)
			}
			l.TornTruncations.Inc()
		}
	}
	return nil
}

// readSegment reads segment i into buffers the log never reuses or
// writes, so replay callbacks may retain the records they are handed. A
// buffer holds about Config.SegmentSize bytes of whole records (the
// whole rest of the file when that is under 1.5 times as much): a sealed
// segment fits in one, and a larger snapshot base is read in
// record-aligned pieces, so a retained record pins no more than its
// piece. A record that runs past a piece starts the next one. On the
// final (writable) segment a bad length, a bad checksum or a short tail
// ends the segment, and its last piece asks for the file to be cut back
// there; anywhere else the same damage is ErrCorrupt. emit hands a piece
// over and reports whether to go on.
func (l *Log) readSegment(i int, path string, isLast bool, emit func(piece) bool) bool {
	f, err := os.Open(path)
	if err != nil {
		return emit(piece{err: fmt.Errorf("wal: read %s: %w", path, err)})
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return emit(piece{err: fmt.Errorf("wal: read %s: %w", path, err)})
	}
	size := fi.Size()
	var buf []byte            // the current piece's buffer
	base := int64(headerSize) // file offset of buf[0]
	from := int64(headerSize) // file offset of the first record not yet emitted
	off := int64(headerSize)  // file offset of the next record
	tail := func(torn bool) bool {
		p := piece{seg: i, off: from, recs: buf[from-base : off-base], end: off, torn: torn}
		if torn && !isLast {
			p = piece{err: fmt.Errorf("%w: %s at offset %d", ErrCorrupt, path, off)}
		}
		return emit(p)
	}
	for off < size {
		rest := buf[off-base:]
		need := recHeaderSize
		if len(rest) >= recHeaderSize {
			n := int(binary.LittleEndian.Uint32(rest[0:4]))
			if n > l.cfg.MaxRecord {
				return tail(true)
			}
			need += n
		}
		if need > len(rest) {
			if base+int64(len(buf)) == size {
				return tail(true)
			}
			// The record runs past the current piece (if any): hand the
			// piece over and read the next one from the record's start.
			// Bytes of it the old piece holds stay unused there.
			if off > from && !emit(piece{seg: i, off: from, recs: buf[from-base : off-base]}) {
				return false
			}
			left := size - off
			want := max(l.cfg.SegmentSize, int64(need))
			if left < want+want/2 {
				want = left
			}
			buf = make([]byte, want)
			if _, err := f.ReadAt(buf, off); err != nil {
				return emit(piece{err: fmt.Errorf("wal: read %s: %w", path, err)})
			}
			base, from = off, off
			continue
		}
		if crc32.Checksum(rest[recHeaderSize:need], crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return tail(true)
		}
		off += int64(need)
	}
	return tail(false)
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
	if l.active.seq < l.snapSeq {
		// A compaction cut the active segment off: start the next one.
		if err := l.rotateLocked(); err != nil {
			return err
		}
		if l.closed {
			return ErrClosed
		}
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
// next window) while the disk flushes; rotation, a compaction's
// install, Sync and Close wait for it through changed. A failed fsync
// still poisons the log.
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
	l.changed.Broadcast()
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
		l.changed.Wait()
	}
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one, numbered past a snapshot in flight.
func (l *Log) rotateLocked() error {
	l.waitSyncLocked()
	switch {
	case l.err != nil:
		return l.err
	case l.closed, l.active.size < l.cfg.SegmentSize && l.active.seq > l.snapSeq:
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
	if err := l.createSegment(max(sealed.seq, l.snapSeq)+1, 0); err != nil {
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
// into large writes.
const snapshotBuffer = 1 << 20

// Snapshot writes a compaction's snapshot. Cut returns it, Append fills
// it and Install puts it in place. It is used by one goroutine, without
// the log locked.
type Snapshot struct {
	l       *Log
	seq     uint32
	f       segFile
	bw      *bufio.Writer
	path    string
	size    int64
	scratch *xmlsoap.Buffer
	err     error
}

// Append writes one snapshot record. It has the same encode contract as
// Log.Append.
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

// Cut starts a compaction. It reserves the sequence number after the
// active segment's for a snapshot base and returns the writer for it;
// the first append after the cut rotates to a fresh segment numbered
// past the snapshot, so the snapshot stands for exactly the records
// before the cut. The caller appends every record the state as of the
// cut needs, without any lock held, then calls Install; appends go on
// meanwhile. Install must follow every successful Cut, also after a
// failed Append: until it runs, the next Cut waits. A compaction
// already in flight is waited out first.
func (l *Log) Cut() (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.snapSeq != 0 && !l.closed {
		l.changed.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	if l.err != nil {
		return nil, l.err
	}
	seq := l.active.seq + 1
	tmpPath := filepath.Join(l.dir, "compact"+tmpSuffix)
	f, err := openSegFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", tmpPath, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], seq)
	hdr[12] = flagBase
	w := &Snapshot{l: l, seq: seq, f: f, bw: bufio.NewWriterSize(f, snapshotBuffer), path: tmpPath, size: headerSize, scratch: xmlsoap.GetBuffer()}
	w.bw.Write(hdr[:]) // into an empty buffer: it cannot fail
	l.snapSeq = seq
	return w, nil
}

// Install finishes the compaction: it flushes and fsyncs the snapshot,
// renames it into place as a base segment and deletes every segment
// before the cut. When no append came after the cut, the snapshot
// becomes the active segment. If a snapshot append failed, or the log
// was closed or poisoned meanwhile, Install removes the temporary, leaves
// the log as it was and returns the error. A failure after the rename
// poisons the log: appends to a segment the new base supersedes would
// be lost on the next Open.
func (w *Snapshot) Install() error {
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("wal: snapshot write %s: %w", w.path, err)
		}
	}
	if w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: snapshot sync: %w", err)
		}
	}
	xmlsoap.PutBuffer(w.scratch)
	if cerr := w.f.Close(); cerr != nil && w.err == nil {
		w.err = fmt.Errorf("wal: snapshot close: %w", cerr)
	}
	l := w.l
	l.mu.Lock()
	defer l.mu.Unlock()
	// The active file may be closed below; no fsync may still run on it.
	l.waitSyncLocked()
	defer func() {
		l.snapSeq = 0
		l.changed.Broadcast()
	}()
	switch {
	case w.err != nil:
	case l.closed:
		w.err = ErrClosed
	case l.err != nil:
		w.err = l.err
	}
	if w.err != nil {
		os.Remove(w.path)
		return w.err
	}
	newPath := l.segPath(w.seq)
	if err := os.Rename(w.path, newPath); err != nil {
		os.Remove(w.path)
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		l.err = err
		return err
	}
	// The snapshot is durable and discoverable; every segment before the
	// cut is garbage now.
	snap := segment{seq: w.seq, path: newPath, size: w.size}
	retired := []segment{snap}
	for _, s := range l.retired {
		if s.seq < w.seq {
			os.Remove(s.path)
		} else {
			retired = append(retired, s)
		}
	}
	if l.active.seq > w.seq {
		l.retired = retired
		l.Compactions.Inc()
		return nil
	}
	old := l.active
	l.active.f = nil // don't double-close if the reopen fails
	if err := old.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: close %s: %w", old.path, err)
		return l.err
	}
	os.Remove(old.path)
	l.retired = nil
	nf, err := openSegFile(newPath, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		l.err = fmt.Errorf("wal: reopen snapshot %s: %w", newPath, err)
		return l.err
	}
	snap.f = nf
	l.active = snap
	l.dirty = false
	l.Compactions.Inc()
	return nil
}

// Compact rewrites live state into a fresh snapshot-base segment and
// deletes the segments it replaces: Cut, the snapshot callback, Install.
// The callback receives the Snapshot writer and must append every record
// the recovered state needs as of the cut; it runs without the log
// locked.
//
// Crash safety: the snapshot is built under a temporary name, fsynced,
// and renamed into place before old segments are removed. Recovery
// ignores temporaries and replays from the newest base segment, so a
// crash anywhere in compaction yields either the old segments or the
// complete snapshot, each followed by the appends made after the cut.
func (l *Log) Compact(snapshot func(w *Snapshot) error) error {
	w, err := l.Cut()
	if err != nil {
		return err
	}
	if err := snapshot(w); err != nil && w.err == nil {
		w.err = err
	}
	return w.Install()
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
