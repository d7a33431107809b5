package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

// TestClosedStoreRefusesMutations: after Close, a durable store fails
// every mutation with ErrClosed and keeps its state, instead of running
// on unlogged as an in-memory store; a store from New is unaffected.
func TestClosedStoreRefusesMutations(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	s, err := Open(clk, filepath.Join(t.TempDir(), "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := s.Put(&Message{ID: id, Destination: "d", Payload: []byte(id), Expires: clk.Now().Add(time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Message{ID: "c", Destination: "d"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v, want ErrClosed", err)
	}
	if err := s.MarkAttempt("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("MarkAttempt after Close: %v, want ErrClosed", err)
	}
	clk.Advance(time.Minute)
	if n := s.Sweep(); n != 0 {
		t.Fatalf("Sweep after Close removed %d", n)
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len after refused mutations = %d, want 2", n)
	}
	if m, err := s.Get("b"); err != nil || m.Attempts != 0 {
		t.Fatalf("Get(b) = %+v, %v; want the message unchanged", m, err)
	}

	mem := New(clk)
	mem.Close()
	if err := mem.Put(&Message{ID: "x", Destination: "d"}); err != nil {
		t.Fatalf("in-memory Put after Close: %v", err)
	}
}

// TestWALErrorsSurface pins the satellite fix: with the log unable to
// accept records, Put/Delete/MarkAttempt report the failure and leave
// memory untouched — the old store swallowed log errors and carried on.
func TestWALErrorsSurface(t *testing.T) {
	s, err := Open(clock.Wall, filepath.Join(t.TempDir(), "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Message{ID: "ok", Destination: "d", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	s.WAL().Close() // the log dies under the store
	if err := s.Put(&Message{ID: "m", Destination: "d"}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Put on dead log: %v, want wal.ErrClosed", err)
	}
	if _, err := s.Get("m"); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed Put still stored the message")
	}
	if err := s.MarkAttempt("ok"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("MarkAttempt on dead log: %v", err)
	}
	if m, _ := s.Get("ok"); m.Attempts != 0 {
		t.Fatal("failed MarkAttempt still incremented")
	}
	if err := s.Delete("ok"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Delete on dead log: %v", err)
	}
	if _, err := s.Get("ok"); err != nil {
		t.Fatal("failed Delete still removed the message")
	}
	// Oversized records surface too, without poisoning the log.
	s2, err := Open(clock.Wall, filepath.Join(t.TempDir(), "wal2"), Options{WAL: wal.Config{MaxRecord: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	big := &Message{ID: "big", Destination: "d", Payload: make([]byte, 128)}
	if err := s2.Put(big); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversized Put: %v, want wal.ErrTooLarge", err)
	}
	if err := s2.Put(&Message{ID: "small", Destination: "d", Payload: []byte("x")}); err != nil {
		t.Fatalf("Put after oversized: %v", err)
	}
}

// TestTimestampsSurviveReplay: Enqueued and Expires round-trip the
// binary record, including the "never expires" zero value and the
// Virtual clock's Unix(0,0) origin.
func TestTimestampsSurviveReplay(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(clk, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	never := &Message{ID: "never", Destination: "d", Payload: []byte("x")}
	s.Put(never) // Enqueued stamped Unix(0,0)
	dated := &Message{ID: "dated", Destination: "d", Payload: []byte("y"),
		Expires: clk.Now().Add(time.Hour)}
	s.Put(dated)
	s.MarkAttempt("dated")
	s.Close()

	s2, err := Open(clk, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.Get("never")
	if err != nil {
		t.Fatal(err)
	}
	if !n.Expires.IsZero() {
		t.Fatalf("never-expires came back as %v", n.Expires)
	}
	if !n.Enqueued.Equal(time.Unix(0, 0)) {
		t.Fatalf("Enqueued = %v, want Unix(0,0)", n.Enqueued)
	}
	d, err := s2.Get("dated")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Expires.Equal(time.Unix(0, 0).Add(time.Hour)) {
		t.Fatalf("Expires = %v", d.Expires)
	}
	if d.Attempts != 1 {
		t.Fatalf("Attempts = %d", d.Attempts)
	}
	// Expiry still enforced after replay.
	clk.Advance(2 * time.Hour)
	if n := s2.Sweep(); n != 1 {
		t.Fatalf("Sweep after replay = %d, want 1", n)
	}
}

// TestAutoCompaction: churn far past CompactAt must trigger snapshot
// compaction — the log stays bounded instead of growing with history —
// and the compacted log replays to the same state.
func TestAutoCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(clock.Wall, dir, Options{
		CompactAt: 4 << 10,
		WAL:       wal.Config{SegmentSize: 2 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("m%04d", i)
		if err := s.Put(&Message{ID: id, Destination: "d", Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if i >= 4 {
			if err := s.Delete(fmt.Sprintf("m%04d", i-4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.WAL().Compactions.Value() == 0 {
		t.Fatal("no compaction despite heavy churn")
	}
	// ~5 live messages * ~170 encoded bytes: the log must be near the
	// live size, not the 400-op history. Allow generous slack for the
	// post-compaction appends since the last snapshot.
	if size := s.WAL().Size(); size > 16<<10 {
		t.Fatalf("log size %d after churn; compaction is not bounding it", size)
	}
	liveLen := s.Len()
	pending := s.PendingFor("d", 0)
	s.Close()
	s2, err := Open(clock.Wall, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != liveLen {
		t.Fatalf("replayed Len = %d, want %d", s2.Len(), liveLen)
	}
	got := s2.PendingFor("d", 0)
	if len(got) != len(pending) {
		t.Fatalf("pending = %d, want %d", len(got), len(pending))
	}
	for i := range pending {
		if got[i].ID != pending[i].ID {
			t.Fatalf("pending order diverged at %d: %s vs %s", i, got[i].ID, pending[i].ID)
		}
	}
}

// TestWALStoreCrashConsistency is the store-level slice of the
// acceptance property: chop the WAL segment at every byte offset after
// a put/delete history — every recovered state must be CONSISTENT
// (deleted messages stay deleted once the delete record survives;
// stored messages decode whole) even though how much history survives
// depends on the cut.
func TestWALStoreCrashConsistency(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(clock.Wall, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(&Message{ID: "acked", Destination: "d", Payload: []byte("delivered-already")})
	s.Put(&Message{ID: "pend-1", Destination: "d", Payload: []byte("waiting one")})
	s.Delete("acked") // delivered: must never come back once this record is on disk
	s.Put(&Message{ID: "pend-2", Destination: "d", Payload: []byte("waiting two")})
	s.MarkAttempt("pend-1")
	s.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The delete record's on-disk position: find where "acked" stops
	// resurrecting. Below it, "acked" may be live (its put survived) —
	// that is consistent, the delete never happened. At or above it,
	// "acked" must be gone.
	for cut := 0; cut <= len(full); cut++ {
		cdir := filepath.Join(t.TempDir(), "cut")
		if err := os.Mkdir(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(clock.Wall, cdir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// Consistency invariants at every cut:
		if m, err := cs.Get("pend-2"); err == nil {
			// pend-2's put is after the delete: if pend-2 exists, the
			// delete record is on disk too, so acked must be gone.
			if string(m.Payload) != "waiting two" {
				t.Fatalf("cut=%d: pend-2 payload %q", cut, m.Payload)
			}
			if _, err := cs.Get("acked"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut=%d: acked message resurrected after its delete", cut)
			}
		}
		if m, err := cs.Get("pend-1"); err == nil {
			if string(m.Payload) != "waiting one" {
				t.Fatalf("cut=%d: pend-1 payload %q", cut, m.Payload)
			}
		} else if cut == len(full) {
			t.Fatalf("full log lost pend-1: %v", err)
		}
		cs.Close()
	}
}

// BenchmarkStorePutDelete measures the durable mutation cycle: one Put
// and one Delete per op, each a WAL append under group commit.
func BenchmarkStorePutDelete(b *testing.B) {
	payload := make([]byte, 256)
	s, err := Open(clock.Wall, filepath.Join(b.TempDir(), "wal"),
		Options{WAL: wal.Config{SegmentSize: 1 << 30}, CompactAt: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	m := &Message{Destination: "http://dest:1/svc", Payload: payload}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ID = fmt.Sprintf("bench-%09d", i)
		m.Enqueued = time.Time{}
		if err := s.Put(m); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(m.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// holdCompaction makes the next compactions stop between their cut and
// their snapshot write: entered receives once per held compaction, and
// each waits for a send on release.
func holdCompaction(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	snapshotHook = func() {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { snapshotHook = nil })
	return entered, release
}

// storeState lists every live message as "id dest attempts payload",
// sorted, so two stores can be compared.
func storeState(s *Store) []string {
	var out []string
	for _, d := range s.Destinations() {
		for _, m := range s.PendingFor(d, 0) {
			out = append(out, fmt.Sprintf("%s %s %d %s", m.ID, m.Destination, m.Attempts, m.Payload))
		}
	}
	slices.Sort(out)
	return out
}

// TestMutationsDuringCompact: while a Compact writes its snapshot, Put,
// Delete, MarkAttempt and PendingFor return before it does. A crash
// before the install, and a reopen after it, both recover the state the
// store holds, mutations during the compaction included.
func TestMutationsDuringCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := Options{WAL: wal.Config{SegmentSize: 4 << 10}, CompactAt: 1 << 40}
	s, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put(&Message{ID: fmt.Sprintf("m%03d", i), Destination: fmt.Sprintf("d%d", i%3), Payload: []byte(fmt.Sprintf("payload-%03d", i))}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := s.Delete(fmt.Sprintf("m%03d", i-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.MarkAttempt("m001"); err != nil {
		t.Fatal(err)
	}
	entered, release := holdCompaction(t)
	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	<-entered

	mutated := make(chan error, 1)
	go func() {
		mutated <- func() error {
			if err := s.Put(&Message{ID: "during", Destination: "d0", Payload: []byte("put during the compaction")}); err != nil {
				return err
			}
			if err := s.Delete("m003"); err != nil {
				return err
			}
			if err := s.MarkAttempt("m001"); err != nil {
				return err
			}
			if n := len(s.PendingFor("d0", 0)); n == 0 {
				return errors.New("PendingFor found nothing")
			}
			return nil
		}()
	}()
	select {
	case err := <-mutated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a Put during a Compact waited for the compaction")
	}
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (%v) while its snapshot write was held", err)
	default:
	}
	want := storeState(s)
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if n := s.WAL().Compactions.Value(); n != 1 {
		t.Fatalf("Compactions = %d, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]string{"crash before the install": crash, "reopen after the install": dir} {
		s2, err := Open(clock.Wall, d, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := storeState(s2); !slices.Equal(got, want) {
			t.Fatalf("%s: recovered %d messages %q, want %d %q", name, len(got), got, len(want), want)
		}
		s2.Close()
	}
}

// TestAutoCompactionInBackground: the mutation that makes a compaction
// due returns without writing the snapshot, and mutations go on while
// it is written, until the log reaches twice the size that made the
// compaction due: from there a mutation waits for the snapshot, so the
// log stays bounded however slowly the snapshot is written. Close waits
// for a compaction in flight, and the reopened store holds every
// mutation.
func TestAutoCompactionInBackground(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	const compactAt = 8 << 10
	opts := Options{CompactAt: compactAt, WAL: wal.Config{SegmentSize: 2 << 10}}
	s, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdCompaction(t)
	lg := s.WAL()
	payload := make([]byte, 128)
	i := 0
	churn := func() error {
		if err := s.Put(&Message{ID: fmt.Sprintf("m%04d", i), Destination: "d", Payload: payload}); err != nil {
			return err
		}
		if i >= 4 {
			if err := s.Delete(fmt.Sprintf("m%04d", i-4)); err != nil {
				return err
			}
		}
		i++
		return nil
	}
	for held := false; !held; {
		if err := churn(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
			held = true
		default:
		}
		if i > 1000 {
			t.Fatal("no compaction started")
		}
	}
	// The Delete that made the compaction due has returned; a few more
	// mutations go on while the snapshot write is held.
	for j := 0; j < 10; j++ {
		if err := churn(); err != nil {
			t.Fatal(err)
		}
	}
	// Churning on, the log reaches twice the due size and a mutation
	// waits for the snapshot.
	churned := make(chan error, 1)
	go func() {
		churned <- func() error {
			for j := 0; j < 500; j++ {
				if err := churn(); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-churned:
		t.Fatalf("500 more puts and deletes (%v) did not wait for the snapshot; log size %d", err, lg.Size())
	case <-time.After(200 * time.Millisecond):
	}
	if size := lg.Size(); size < 2*compactAt || size > 2*compactAt+1<<10 {
		t.Fatalf("a mutation waits at log size %d, want about %d", size, 2*compactAt)
	}
	snapshotHook = nil
	release <- struct{}{}
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	// Close waits for a compaction in flight. (Compact first waits out
	// any compaction the churn left running, so the hook is swapped with
	// none reading it.)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	entered, release = holdCompaction(t)
	for held := false; !held; {
		if err := churn(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
			held = true
		default:
		}
	}
	want := storeState(s)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) under a compaction in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := lg.Compactions.Value(); n < 2 {
		t.Fatalf("Compactions = %d, want at least 2", n)
	}
	s2, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storeState(s2); !slices.Equal(got, want) {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}
