package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

// Message is one stored message awaiting delivery.
type Message struct {
	// ID is globally unique (normally the WS-Addressing MessageID).
	ID string
	// Destination is the delivery target URL.
	Destination string
	// Payload is the serialized envelope. Once stored it is immutable
	// and owned by the store (see the package doc).
	Payload []byte
	// Enqueued is when the message entered the store.
	Enqueued time.Time
	// Expires is when the message is abandoned. Zero means never.
	Expires time.Time
	// Attempts counts delivery tries so far.
	Attempts int
}

// Expired reports whether the message is past its expiration at now.
func (m *Message) Expired(now time.Time) bool {
	return !m.Expires.IsZero() && now.After(m.Expires)
}

// Errors returned by Store operations.
var (
	ErrDuplicate = errors.New("store: duplicate message id")
	ErrNotFound  = errors.New("store: message not found")
	ErrClosed    = errors.New("store: closed")
)

// WAL record ops. One record = op byte + op-specific body; records are
// framed and checksummed by the wal layer.
const (
	opPut = 'p' // flags, ID, Destination, Enqueued, [Expires], Attempts, payload
	opDel = 'd' // ID
	opAtt = 'a' // ID
)

// putFlagExpires marks a put record carrying an Expires timestamp.
// Enqueued needs no flag — Put always stamps it — but Expires' zero
// value means "never" and must round-trip as exactly that (UnixNano of
// the zero time.Time is garbage, and nano 0 is a legitimate Virtual
// clock instant, so presence must be explicit).
const putFlagExpires = 0x01

// entry is a stored message and its slot in its destination's queue.
type entry struct {
	Message
	pos int // index in queue.slots
}

// queue holds one destination's messages in insertion order. A delete
// clears its slot; head skips the cleared prefix, and the slots are
// compacted once more than half of those past head are clear, so a
// delete in any order is amortized O(1).
type queue struct {
	dest  string // the byDest key; recovery interns destinations to it
	slots []*entry
	head  int // slots[:head] are all nil
	live  int // non-nil slots
}

// push appends e, reusing the array when over half its slots are clear.
func (q *queue) push(e *entry) {
	if len(q.slots) == cap(q.slots) && 2*q.live < len(q.slots) {
		q.compact()
	}
	e.pos = len(q.slots)
	q.slots = append(q.slots, e)
	q.live++
}

// remove clears e's slot and returns how many messages are left.
func (q *queue) remove(e *entry) int {
	q.slots[e.pos] = nil
	q.live--
	for q.head < len(q.slots) && q.slots[q.head] == nil {
		q.head++
	}
	if 2*q.live < len(q.slots)-q.head {
		q.compact()
	}
	return q.live
}

// compact moves the live slots to the front, in order.
func (q *queue) compact() {
	n := 0
	for _, e := range q.slots[q.head:] {
		if e != nil {
			e.pos = n
			q.slots[n] = e
			n++
		}
	}
	clear(q.slots[n:])
	q.slots = q.slots[:n]
	q.head = 0
}

// Store is a concurrent message store, optionally durable via a
// write-ahead log.
type Store struct {
	clk clock.Clock

	mu     sync.Mutex
	byID   map[string]*entry
	byDest map[string]*queue
	log    *wal.Log // nil for a purely in-memory store
	// closed is set when Close releases the log: from then on every
	// mutation fails with ErrClosed instead of running unlogged.
	closed bool

	// Staging for the zero-alloc WAL encode: the encode callback is one
	// cached method value (encFn) reading these fields, set under mu
	// right before each append, so the hot path builds no closures.
	encOp  byte
	encMsg *Message
	encID  string
	encFn  func([]byte) []byte

	// liveBytes approximates the encoded size of the live state; the
	// log compacts when it exceeds roughly twice this.
	liveBytes int64
	compactAt int64

	// compacting is set while a compaction writes its snapshot without
	// mu held; compactDone (on mu) is broadcast when it ends.
	compacting  bool
	compactDone *sync.Cond

	// counters
	expired int64
}

// defaultCompactAt is the log size below which compaction never
// triggers, regardless of garbage ratio — tiny logs aren't worth the
// snapshot churn.
const defaultCompactAt = 1 << 20

// New returns an in-memory store on clk.
func New(clk clock.Clock) *Store {
	if clk == nil {
		clk = clock.Wall
	}
	s := &Store{
		clk:       clk,
		byID:      make(map[string]*entry),
		byDest:    make(map[string]*queue),
		compactAt: defaultCompactAt,
	}
	s.encFn = s.encodeStaged
	s.compactDone = sync.NewCond(&s.mu)
	return s
}

// Options tunes a durable store.
type Options struct {
	// WAL configures the backing log (segment size, record bound, and
	// the clock of its group-commit window — the store's clock is used
	// when unset).
	WAL wal.Config
	// CompactAt is the log size (bytes) above which auto-compaction may
	// run; the log must also exceed twice the live state. Default 1 MiB.
	CompactAt int64
}

// Open returns a store durably backed by a write-ahead log in dir
// (created if absent; the parent must exist), replaying any existing
// log into memory first.
func Open(clk clock.Clock, dir string, opts Options) (*Store, error) {
	s := New(clk)
	if opts.CompactAt > 0 {
		s.compactAt = opts.CompactAt
	}
	cfg := opts.WAL
	if cfg.Clock == nil {
		cfg.Clock = s.clk
	}
	l, err := wal.Open(dir, cfg, s.applyRecord)
	if err != nil {
		return nil, err
	}
	s.log = l
	return s, nil
}

// Close waits out a compaction in flight, then syncs and releases the
// backing log, if any. After a durable store is closed, Put, Delete and
// MarkAttempt fail with ErrClosed and Sweep removes nothing, so no
// caller is told a change is durable when it is not; an in-memory
// store keeps working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.compacting {
		s.compactDone.Wait()
	}
	if s.log != nil {
		err := s.log.Close()
		s.log, s.closed = nil, true
		return err
	}
	return nil
}

// Sync fsyncs WAL appends the open group-commit window has not yet
// covered (a no-op for in-memory stores).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// WAL exposes the backing log's counters (appends, syncs, rotations,
// compactions, torn-tail truncations) for stats surfaces and tests.
// Nil for in-memory stores.
func (s *Store) WAL() *wal.Log { return s.log }

// encodeStaged is the WAL encode callback: it appends the staged
// operation (encOp/encMsg/encID, set under mu) to dst. One method value
// of it is cached in encFn so appends allocate nothing.
func (s *Store) encodeStaged(dst []byte) []byte {
	if s.encOp == opPut {
		return appendPut(dst, s.encMsg, s.encMsg.Attempts)
	}
	// opDel, opAtt: just the ID
	dst = append(dst, s.encOp)
	return append(dst, s.encID...)
}

// appendPut appends a put record for m, with attempts as its attempt
// count, to dst.
func appendPut(dst []byte, m *Message, attempts int) []byte {
	var flags byte
	if !m.Expires.IsZero() {
		flags |= putFlagExpires
	}
	dst = append(dst, opPut, flags)
	dst = binary.AppendUvarint(dst, uint64(len(m.ID)))
	dst = append(dst, m.ID...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Destination)))
	dst = append(dst, m.Destination...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Enqueued.UnixNano()))
	if flags&putFlagExpires != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Expires.UnixNano()))
	}
	dst = binary.AppendUvarint(dst, uint64(attempts))
	return append(dst, m.Payload...)
}

// errBadRecord marks a WAL record that passed its checksum but does not
// decode — a format version skew, not bit rot.
var errBadRecord = errors.New("store: undecodable WAL record")

// applyRecord is the WAL replay callback. rec aliases a read buffer
// the log never reuses: a recovered payload keeps pointing into it.
func (s *Store) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return errBadRecord
	}
	op, rest := rec[0], rec[1:]
	switch op {
	case opPut:
		e, err := s.decodePut(rest)
		if err != nil {
			return err
		}
		if _, dup := s.byID[e.ID]; !dup {
			s.insertLocked(e)
		}
	case opDel:
		if e := s.byID[string(rest)]; e != nil {
			s.removeLocked(e)
		}
	case opAtt:
		if e := s.byID[string(rest)]; e != nil {
			e.Attempts++
		}
	default:
		return fmt.Errorf("%w: op %q", errBadRecord, op)
	}
	return nil
}

// decodePut decodes a put record body. The payload aliases the record,
// capacity clipped to it. The ID is cloned: it becomes a map key and
// travels to the mailbox and the courier. The destination is interned to
// its queue's key, so every record for one box shares one string, and
// none of the three pins the read buffer.
func (s *Store) decodePut(b []byte) (*entry, error) {
	if len(b) < 1 {
		return nil, errBadRecord
	}
	flags := b[0]
	b = b[1:]
	id, b, ok := takeField(b)
	if !ok {
		return nil, errBadRecord
	}
	dest, b, ok := takeField(b)
	if !ok {
		return nil, errBadRecord
	}
	if len(b) < 8 {
		return nil, errBadRecord
	}
	enq := int64(binary.LittleEndian.Uint64(b))
	b = b[8:]
	var expires time.Time
	if flags&putFlagExpires != 0 {
		if len(b) < 8 {
			return nil, errBadRecord
		}
		expires = time.Unix(0, int64(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	attempts, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errBadRecord
	}
	b = b[n:]
	var destination string
	if q := s.byDest[string(dest)]; q != nil {
		destination = q.dest
	} else {
		destination = string(dest)
	}
	return &entry{Message: Message{
		ID:          string(id),
		Destination: destination,
		Payload:     b[:len(b):len(b)],
		Enqueued:    time.Unix(0, enq),
		Expires:     expires,
		Attempts:    int(attempts),
	}}, nil
}

// takeField reads a uvarint-length-prefixed field, aliasing the record.
func takeField(b []byte) (field, rest []byte, ok bool) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return nil, nil, false
	}
	return b[sz : sz+int(n)], b[sz+int(n):], true
}

// appendStagedLocked writes the staged operation to the WAL, if one is
// attached. Called with mu held; the store mutates memory only after
// the log accepted the record (write-ahead), so a returned error means
// the operation did not happen.
func (s *Store) appendStagedLocked() error {
	if s.log == nil {
		if s.closed {
			return ErrClosed
		}
		return nil
	}
	return s.log.Append(s.encFn)
}

// Put stores a message. The ID must be unique among live messages. With
// a WAL attached, the record is on the log (durable as package wal's
// "Sync policy" states) before Put returns nil; a log error is returned
// and the message is NOT stored.
//
// Put keeps m.Payload without copying it: the caller hands the slice
// over and must not modify it afterwards. The Message struct itself is
// copied, so the caller may reuse it.
func (s *Store) Put(m *Message) error {
	if m.ID == "" {
		return errors.New("store: empty message id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[m.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, m.ID)
	}
	if m.Enqueued.IsZero() {
		m.Enqueued = s.clk.Now()
	}
	e := &entry{Message: *m}
	s.encOp, s.encMsg = opPut, &e.Message
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	s.insertLocked(e)
	return nil
}

func (s *Store) insertLocked(e *entry) {
	q := s.byDest[e.Destination]
	if q == nil {
		q = &queue{dest: e.Destination}
		s.byDest[q.dest] = q
	}
	q.push(e)
	s.byID[e.ID] = e
	s.liveBytes += liveSize(&e.Message)
}

// liveSize approximates a message's encoded record size for the
// compaction trigger.
func liveSize(m *Message) int64 {
	return int64(32 + len(m.ID) + len(m.Destination) + len(m.Payload))
}

// Get returns a copy of the message with the given ID, payload
// included: the caller may modify it.
func (s *Store) Get(id string) (*Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cp := e.Message
	cp.Payload = append([]byte(nil), e.Payload...)
	return &cp, nil
}

// Delete removes a message (after successful delivery or expiry). With
// a WAL attached, a log error is returned and the message stays.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.encOp, s.encID = opDel, id
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	s.removeLocked(e)
	s.maybeCompactLocked()
	return nil
}

func (s *Store) removeLocked(e *entry) {
	delete(s.byID, e.ID)
	s.liveBytes -= liveSize(&e.Message)
	if s.byDest[e.Destination].remove(e) == 0 {
		delete(s.byDest, e.Destination)
	}
}

// MarkAttempt increments the delivery attempt counter. With a WAL
// attached, a log error is returned and the counter is unchanged.
func (s *Store) MarkAttempt(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.encOp, s.encID = opAtt, id
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	e.Attempts++
	return nil
}

// PendingFor returns live (non-expired) messages queued for destination,
// in insertion order, up to max (0 = all). Each is a copy of the stored
// message whose Payload shares the stored bytes: read-only.
func (s *Store) PendingFor(destination string, max int) []*Message {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.byDest[destination]
	if q == nil {
		return []*Message{}
	}
	n := q.live
	if max > 0 && max < n {
		n = max
	}
	// One array backs every returned struct; it never grows past n, so
	// the pointers into it stay valid.
	msgs := make([]Message, 0, n)
	out := make([]*Message, 0, n)
	for _, e := range q.slots[q.head:] {
		if e == nil || e.Expired(now) {
			continue
		}
		msgs = append(msgs, e.Message)
		out = append(out, &msgs[len(msgs)-1])
		if len(out) == n {
			break
		}
	}
	return out
}

// Destinations returns all destinations with live pending messages.
func (s *Store) Destinations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byDest))
	for d := range s.byDest {
		out = append(out, d)
	}
	return out
}

// Sweep removes every expired message and returns how many were dropped.
// Callers run it periodically (the "expiration time" behaviour the paper
// wanted from its DB). A WAL error mid-sweep does not stop the in-memory
// removal: expiry is re-derived from timestamps on replay, so an
// unlogged expiry delete self-heals on the next open (and the log's
// sticky error still surfaces through the next Put/Delete/MarkAttempt).
func (s *Store) Sweep() int {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	var dead []*entry
	for _, e := range s.byID {
		if e.Expired(now) {
			dead = append(dead, e)
		}
	}
	for _, e := range dead {
		s.encOp, s.encID = opDel, e.ID
		_ = s.appendStagedLocked()
		s.removeLocked(e)
	}
	s.expired += int64(len(dead))
	if len(dead) > 0 {
		s.maybeCompactLocked()
	}
	return len(dead)
}

// maybeCompactLocked starts a compaction once the log is both past the
// CompactAt floor and more than half garbage, and none runs yet. The
// snapshot is written and installed on a goroutine of its own, so the
// mutation that made it due does not wait for it. While one runs, a
// mutation that finds the log at twice the size that makes a compaction
// due waits for it: a snapshot written more slowly than the log grows
// cannot let the log run away. Compaction failures are not surfaced
// here — a failed snapshot leaves the log as it was, and the log's
// sticky error resurfaces on the next mutating call.
func (s *Store) maybeCompactLocked() {
	if s.log == nil {
		return
	}
	due, size := max(s.compactAt, 2*s.liveBytes), s.log.Size()
	if s.compacting {
		for size >= 2*due && s.compacting {
			s.compactDone.Wait()
		}
		return
	}
	if size < due {
		return
	}
	if w, live, err := s.cutLocked(); err == nil {
		go s.writeSnapshot(w, live)
	}
}

// liveAt is a live message as of a compaction's cut. Everything in it
// but Attempts is immutable once stored, so only Attempts is copied.
type liveAt struct {
	e        *entry
	attempts int
}

// cutLocked cuts the log and lists the live messages, so the snapshot
// can be written without mu. Both happen under mu, with no append in
// between: the snapshot holds exactly the state that the segments
// before the cut add up to.
func (s *Store) cutLocked() (*wal.Snapshot, []liveAt, error) {
	w, err := s.log.Cut()
	if err != nil {
		return nil, nil, err
	}
	live := make([]liveAt, 0, len(s.byID))
	for _, q := range s.byDest {
		for _, e := range q.slots[q.head:] {
			if e != nil {
				live = append(live, liveAt{e, e.Attempts})
			}
		}
	}
	s.compacting = true
	return w, live, nil
}

// snapshotHook runs between a compaction's cut and its snapshot write.
// Tests set it to hold a compaction open; it is nil otherwise.
var snapshotHook func()

// writeSnapshot writes the live messages into w and installs it, then
// lets the next compaction start. It runs without mu.
func (s *Store) writeSnapshot(w *wal.Snapshot, live []liveAt) error {
	if snapshotHook != nil {
		snapshotHook()
	}
	var cur liveAt
	enc := func(dst []byte) []byte { return appendPut(dst, &cur.e.Message, cur.attempts) }
	for _, cur = range live {
		if w.Append(enc) != nil {
			break // Install reports the error
		}
	}
	err := w.Install()
	s.mu.Lock()
	s.compacting = false
	s.compactDone.Broadcast()
	s.mu.Unlock()
	return err
}

// Compact snapshots the live state into a fresh WAL base segment and
// returns once it is installed (a no-op for in-memory stores). It holds
// the store's lock only while it cuts the log: Put, Delete and the rest
// go on while the snapshot is written. A compaction in flight is waited
// out first.
func (s *Store) Compact() error {
	s.mu.Lock()
	for s.compacting {
		s.compactDone.Wait()
	}
	if s.log == nil {
		s.mu.Unlock()
		return nil
	}
	w, live, err := s.cutLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.writeSnapshot(w, live)
}

// Len returns the number of live messages.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// ExpiredTotal returns the cumulative number of swept messages.
func (s *Store) ExpiredTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expired
}
