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

// Store is a concurrent message store, optionally durable via a
// write-ahead log.
type Store struct {
	clk clock.Clock

	mu     sync.Mutex
	byID   map[string]*Message
	byDest map[string][]string // insertion-ordered IDs per destination
	log    *wal.Log            // nil for a purely in-memory store

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
		byID:      make(map[string]*Message),
		byDest:    make(map[string][]string),
		compactAt: defaultCompactAt,
	}
	s.encFn = s.encodeStaged
	return s
}

// Options tunes a durable store.
type Options struct {
	// WAL configures the backing log (sync policy, segment size, clock —
	// the store's clock is used when unset).
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

// Close syncs and releases the backing log, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		err := s.log.Close()
		s.log = nil
		return err
	}
	return nil
}

// Sync forces any buffered WAL appends to disk (a no-op for in-memory
// stores and under wal.SyncAlways).
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
	switch s.encOp {
	case opPut:
		m := s.encMsg
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
		dst = binary.AppendUvarint(dst, uint64(m.Attempts))
		dst = append(dst, m.Payload...)
	default: // opDel, opAtt: just the ID
		dst = append(dst, s.encOp)
		dst = append(dst, s.encID...)
	}
	return dst
}

// errBadRecord marks a WAL record that passed its checksum but does not
// decode — a format version skew, not bit rot.
var errBadRecord = errors.New("store: undecodable WAL record")

// applyRecord is the WAL replay callback. rec aliases the reader's
// buffer; everything retained is copied.
func (s *Store) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return errBadRecord
	}
	op, rest := rec[0], rec[1:]
	switch op {
	case opPut:
		m, err := decodePut(rest)
		if err != nil {
			return err
		}
		if _, dup := s.byID[m.ID]; !dup {
			s.insertLocked(m)
		}
	case opDel:
		s.removeLocked(string(rest))
	case opAtt:
		if m := s.byID[string(rest)]; m != nil {
			m.Attempts++
		}
	default:
		return fmt.Errorf("%w: op %q", errBadRecord, op)
	}
	return nil
}

// decodePut decodes a put record body into a freshly allocated Message.
// Its payload copy out of the replay buffer is the one copy of a
// recovered message the process holds.
func decodePut(b []byte) (*Message, error) {
	if len(b) < 1 {
		return nil, errBadRecord
	}
	flags := b[0]
	b = b[1:]
	id, b, ok := takeString(b)
	if !ok {
		return nil, errBadRecord
	}
	dest, b, ok := takeString(b)
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
	return &Message{
		ID:          id,
		Destination: dest,
		Payload:     append([]byte(nil), b...),
		Enqueued:    time.Unix(0, enq),
		Expires:     expires,
		Attempts:    int(attempts),
	}, nil
}

// takeString reads a uvarint-length-prefixed string, copying it out of
// the record buffer.
func takeString(b []byte) (string, []byte, bool) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, false
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], true
}

// appendStagedLocked writes the staged operation to the WAL, if one is
// attached. Called with mu held; the store mutates memory only after
// the log accepted the record (write-ahead), so a returned error means
// the operation did not happen.
func (s *Store) appendStagedLocked() error {
	if s.log == nil {
		return nil
	}
	return s.log.Append(s.encFn)
}

// Put stores a message. The ID must be unique among live messages. With
// a WAL attached, the record is on the log (durable per the configured
// sync policy) before Put returns nil; a log error is returned and the
// message is NOT stored.
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
	cp := *m
	s.encOp, s.encMsg = opPut, &cp
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	s.insertLocked(&cp)
	return nil
}

func (s *Store) insertLocked(m *Message) {
	s.byID[m.ID] = m
	s.byDest[m.Destination] = append(s.byDest[m.Destination], m.ID)
	s.liveBytes += liveSize(m)
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
	m, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cp := *m
	cp.Payload = append([]byte(nil), m.Payload...)
	return &cp, nil
}

// Delete removes a message (after successful delivery or expiry). With
// a WAL attached, a log error is returned and the message stays.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.encOp, s.encID = opDel, id
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	s.removeLocked(id)
	s.maybeCompactLocked()
	return nil
}

func (s *Store) removeLocked(id string) {
	m, ok := s.byID[id]
	if !ok {
		return
	}
	delete(s.byID, id)
	s.liveBytes -= liveSize(m)
	ids := s.byDest[m.Destination]
	for i, x := range ids {
		if x == id {
			s.byDest[m.Destination] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(s.byDest[m.Destination]) == 0 {
		delete(s.byDest, m.Destination)
	}
}

// MarkAttempt increments the delivery attempt counter. With a WAL
// attached, a log error is returned and the counter is unchanged.
func (s *Store) MarkAttempt(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.encOp, s.encID = opAtt, id
	if err := s.appendStagedLocked(); err != nil {
		return err
	}
	m.Attempts++
	return nil
}

// PendingFor returns live (non-expired) messages queued for destination,
// in insertion order, up to max (0 = all). Each is a copy of the stored
// message whose Payload shares the stored bytes: read-only.
func (s *Store) PendingFor(destination string, max int) []*Message {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.byDest[destination]
	n := len(ids)
	if max > 0 && max < n {
		n = max
	}
	// One array backs every returned struct; it never grows past n, so
	// the pointers into it stay valid.
	msgs := make([]Message, 0, n)
	out := make([]*Message, 0, n)
	for _, id := range ids {
		m := s.byID[id]
		if m == nil || m.Expired(now) {
			continue
		}
		msgs = append(msgs, *m)
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
	var dead []string
	for id, m := range s.byID {
		if m.Expired(now) {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		s.encOp, s.encID = opDel, id
		_ = s.appendStagedLocked()
		s.removeLocked(id)
	}
	s.expired += int64(len(dead))
	if len(dead) > 0 {
		s.maybeCompactLocked()
	}
	return len(dead)
}

// maybeCompactLocked compacts the log once it is both past the
// CompactAt floor and more than half garbage. Compaction failures are
// not surfaced here — the log's sticky error resurfaces on the next
// mutating call.
func (s *Store) maybeCompactLocked() {
	if s.log == nil {
		return
	}
	size := s.log.Size()
	if size < s.compactAt || size < 2*s.liveBytes {
		return
	}
	_ = s.compactLocked()
}

// compactLocked snapshots the live state into a fresh WAL base segment.
func (s *Store) compactLocked() error {
	if s.log == nil {
		return nil
	}
	return s.log.Compact(func(w *wal.Snapshot) error {
		for _, ids := range s.byDest {
			for _, id := range ids {
				m := s.byID[id]
				if m == nil {
					continue
				}
				s.encOp, s.encMsg = opPut, m
				if err := w.Append(s.encFn); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Compact forces a snapshot compaction of the backing log (no-op for
// in-memory stores).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
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
