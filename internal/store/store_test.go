package store

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func msg(id, dest string, payload string) *Message {
	return &Message{ID: id, Destination: dest, Payload: []byte(payload)}
}

func TestPutGetDelete(t *testing.T) {
	s := New(clock.Wall)
	if err := s.Put(msg("m1", "http://a:1/x", "hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("m1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "hello" || got.Destination != "http://a:1/x" {
		t.Fatalf("got = %+v", got)
	}
	if got.Enqueued.IsZero() {
		t.Fatal("Enqueued not stamped")
	}
	if err := s.Delete("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("m1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v", err)
	}
	if err := s.Delete("m1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete = %v", err)
	}
}

func TestPutDuplicate(t *testing.T) {
	s := New(clock.Wall)
	s.Put(msg("m1", "d", "a"))
	if err := s.Put(msg("m1", "d", "b")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Put = %v", err)
	}
}

func TestPutEmptyID(t *testing.T) {
	s := New(clock.Wall)
	if err := s.Put(msg("", "d", "x")); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestPendingForOrdering(t *testing.T) {
	s := New(clock.Wall)
	for _, id := range []string{"a", "b", "c"} {
		s.Put(msg(id, "dest", id))
	}
	s.Put(msg("other", "elsewhere", "x"))
	got := s.PendingFor("dest", 0)
	if len(got) != 3 {
		t.Fatalf("pending = %d", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].ID != want {
			t.Fatalf("order = %v", got)
		}
	}
	if limited := s.PendingFor("dest", 2); len(limited) != 2 {
		t.Fatalf("limited = %d", len(limited))
	}
}

func TestExpirationSweep(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	s := New(clk)
	m := msg("m1", "d", "x")
	m.Expires = clk.Now().Add(time.Minute)
	s.Put(m)
	keep := msg("m2", "d", "y") // no expiry
	s.Put(keep)

	if n := s.Sweep(); n != 0 {
		t.Fatalf("premature sweep removed %d", n)
	}
	clk.Advance(2 * time.Minute)
	if n := s.Sweep(); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ExpiredTotal() != 1 {
		t.Fatalf("ExpiredTotal = %d", s.ExpiredTotal())
	}
	// Expired messages are also hidden from PendingFor before sweeping.
	m3 := msg("m3", "d", "z")
	m3.Expires = clk.Now().Add(time.Second)
	s.Put(m3)
	clk.Advance(time.Hour)
	for _, p := range s.PendingFor("d", 0) {
		if p.ID == "m3" {
			t.Fatal("expired message visible in PendingFor")
		}
	}
}

func TestMarkAttempt(t *testing.T) {
	s := New(clock.Wall)
	s.Put(msg("m1", "d", "x"))
	s.MarkAttempt("m1")
	s.MarkAttempt("m1")
	got, _ := s.Get("m1")
	if got.Attempts != 2 {
		t.Fatalf("Attempts = %d", got.Attempts)
	}
	if err := s.MarkAttempt("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MarkAttempt missing = %v", err)
	}
}

func TestDestinations(t *testing.T) {
	s := New(clock.Wall)
	s.Put(msg("1", "a", "x"))
	s.Put(msg("2", "b", "x"))
	s.Put(msg("3", "a", "x"))
	ds := s.Destinations()
	if len(ds) != 2 {
		t.Fatalf("Destinations = %v", ds)
	}
	s.Delete("2")
	if len(s.Destinations()) != 1 {
		t.Fatal("destination with no messages survived")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New(clock.Wall)
	s.Put(msg("m", "d", "orig"))
	got, _ := s.Get("m")
	got.Payload[0] = 'X'
	again, _ := s.Get("m")
	if string(again.Payload) != "orig" {
		t.Fatal("Get exposed internal payload")
	}
}

// TestPendingForSharesPayload pins the ownership rule: Put keeps the
// caller's slice and PendingFor hands the same bytes back, uncopied.
func TestPendingForSharesPayload(t *testing.T) {
	s := New(clock.Wall)
	m := msg("m", "d", "parked")
	s.Put(m)
	got := s.PendingFor("d", 0)
	if len(got) != 1 || &got[0].Payload[0] != &m.Payload[0] {
		t.Fatal("PendingFor returned a copy of the stored payload")
	}
}

func TestFilePersistenceReplay(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	defer clk.Stop()
	dir := filepath.Join(t.TempDir(), "wal")

	s, err := Open(clk, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(msg("m1", "d1", "first"))
	s.Put(msg("m2", "d2", "second"))
	s.MarkAttempt("m2")
	s.Delete("m1")
	s.Close()

	s2, err := Open(clk, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("replayed Len = %d, want 1", s2.Len())
	}
	if _, err := s2.Get("m1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted message survived replay")
	}
	m2, err := s2.Get("m2")
	if err != nil {
		t.Fatal(err)
	}
	if string(m2.Payload) != "second" || m2.Attempts != 1 {
		t.Fatalf("m2 = %+v", m2)
	}
}

// Property: after any sequence of puts (unique ids) and deletes, Len
// matches the reference set and PendingFor preserves insertion order.
func TestQuickStoreConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New(clock.Wall)
		ref := map[string]bool{}
		var order []string
		next := 0
		for _, op := range ops {
			if op%3 != 0 || len(order) == 0 {
				id := string(rune('a'+next%26)) + string(rune('0'+next/26%10))
				next++
				if ref[id] {
					continue
				}
				if err := s.Put(msg(id, "d", "x")); err != nil {
					return false
				}
				ref[id] = true
				order = append(order, id)
			} else {
				id := order[0]
				order = order[1:]
				delete(ref, id)
				if err := s.Delete(id); err != nil {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		pending := s.PendingFor("d", 0)
		if len(pending) != len(order) {
			return false
		}
		for i := range order {
			if pending[i].ID != order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingForOrderAcrossDeletes: PendingFor keeps insertion order
// whatever order messages are deleted in — oldest first (a mailbox's
// takes), newest first, or anywhere in between — with puts interleaved,
// across several destinations and with a max.
func TestPendingForOrderAcrossDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(clock.Wall)
	ref := map[string][]string{} // destination -> live IDs in insertion order
	dests := []string{"d0", "d1", "d2"}
	for step := 0; step < 20000; step++ {
		d := dests[rng.Intn(len(dests))]
		ids := ref[d]
		switch op := rng.Intn(10); {
		case op < 5 || len(ids) == 0:
			id := fmt.Sprintf("m%d", step)
			if err := s.Put(msg(id, d, id)); err != nil {
				t.Fatal(err)
			}
			ref[d] = append(ids, id)
			continue
		case op < 7: // oldest
			ref[d] = ids[1:]
			if err := s.Delete(ids[0]); err != nil {
				t.Fatal(err)
			}
		case op < 8: // newest
			ref[d] = ids[:len(ids)-1]
			if err := s.Delete(ids[len(ids)-1]); err != nil {
				t.Fatal(err)
			}
		default: // anywhere
			i := rng.Intn(len(ids))
			ref[d] = slices.Delete(slices.Clone(ids), i, i+1)
			if err := s.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		max := rng.Intn(4)
		var got []string
		for _, m := range s.PendingFor(d, max) {
			if string(m.Payload) != m.ID {
				t.Fatalf("step %d: %s carries payload %q", step, m.ID, m.Payload)
			}
			got = append(got, m.ID)
		}
		want := ref[d]
		if max > 0 && max < len(want) {
			want = want[:max]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: PendingFor(%s, %d) = %v, want %v", step, d, max, got, want)
		}
	}
	for _, d := range dests {
		var got []string
		for _, m := range s.PendingFor(d, 0) {
			got = append(got, m.ID)
		}
		if !slices.Equal(got, ref[d]) {
			t.Fatalf("PendingFor(%s) = %v, want %v", d, got, ref[d])
		}
	}
}

// BenchmarkStoreDrain deletes one destination's messages oldest first,
// as a mailbox's takes and a courier's acks do, from a backlog of n
// that is refilled, off the clock, whenever it runs dry. One op is one
// delete, and its cost should not grow with n.
func BenchmarkStoreDrain(b *testing.B) {
	for _, n := range []int{10_000, 160_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("drain-%06d", i)
			}
			payload := []byte("x")
			s := New(clock.Wall)
			next := n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == n {
					b.StopTimer()
					for _, id := range ids {
						if err := s.Put(&Message{ID: id, Destination: "d", Payload: payload}); err != nil {
							b.Fatal(err)
						}
					}
					next = 0
					b.StartTimer()
				}
				if err := s.Delete(ids[next]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/delete")
		})
	}
}
