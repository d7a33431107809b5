package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

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
		WAL:       wal.Config{Sync: wal.SyncNever, SegmentSize: 2 << 10},
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
	s, err := Open(clock.Wall, dir, Options{WAL: wal.Config{Sync: wal.SyncNever}})
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
// and one Delete per op, each a WAL append, under the production
// group-commit policy and with fsync off (the encode+frame+write cost).
func BenchmarkStorePutDelete(b *testing.B) {
	payload := make([]byte, 256)
	for _, mode := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"nosync", wal.SyncNever}, {"group", wal.SyncInterval}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := Open(clock.Wall, filepath.Join(b.TempDir(), "wal"),
				Options{WAL: wal.Config{Sync: mode.sync, SegmentSize: 1 << 30}, CompactAt: 1 << 40})
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
		})
	}
}
