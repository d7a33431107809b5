package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"weak"

	"repro/internal/clock"
	"repro/internal/wal"
)

// TestRecoverySteadyStateAllocs gates what Open allocates per recovered
// 1 KiB put: the read buffers (the log's own bytes, which the recovered
// payloads point into), the entry and the cloned ID. A payload copy per
// record costs one more allocation and the payload again, and breaks
// both limits.
func TestRecoverySteadyStateAllocs(t *testing.T) {
	const records = 10000
	dir := filepath.Join(t.TempDir(), "wal")
	opts := Options{}
	s, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'p'}, 1024)
	for i := 0; i < records; i++ {
		m := &Message{ID: fmt.Sprintf("urn:uuid:rec-%06d", i), Destination: fmt.Sprintf("mbox:%02d", i%50), Payload: payload}
		if err := s.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	logBytes := s.WAL().Size()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s2, err := Open(clock.Wall, dir, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Len(); n != records {
		t.Fatalf("recovered %d messages, want %d", n, records)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / records
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / records
	limit := float64(logBytes)/records + 400
	t.Logf("Open: %.2f allocs and %.0f B per recovered record (%.0f B of log each)", allocs, perRec, float64(logBytes)/records)
	if allocs > 2.25 {
		t.Errorf("Open made %.2f allocs per recovered record, want <= 2.25", allocs)
	}
	if perRec > limit {
		t.Errorf("Open allocated %.0f B per recovered record, want <= %.0f B (log bytes + 400 B)", perRec, limit)
	}
}

// TestRecoveryBufferReleased: a recovered payload points into the read
// buffer of its segment, which stays live while any message recovered
// from it is. Deleting every message recovered from one segment frees
// that segment's buffer; the other segment's buffer stays.
func TestRecoveryBufferReleased(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := Options{WAL: wal.Config{SegmentSize: 8 << 10}, CompactAt: 1 << 40}
	s, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var first, second []string // IDs by the segment their put went to
	for i := 0; len(second) < 4; i++ {
		id := fmt.Sprintf("m%03d", i)
		seg := s.WAL().Segments()
		if err := s.Put(&Message{ID: id, Destination: "d", Payload: bytes.Repeat([]byte{'x'}, 1000)}); err != nil {
			t.Fatal(err)
		}
		if seg == 1 {
			first = append(first, id)
		} else {
			second = append(second, id)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(clock.Wall, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.WAL().Segments(); n != 2 {
		t.Fatalf("log has %d segments, want 2", n)
	}
	bufFirst, bufSecond := weakPayload(t, s2, first[0]), weakPayload(t, s2, second[0])
	runtime.GC()
	if bufFirst.Value() == nil || bufSecond.Value() == nil {
		t.Fatal("a read buffer was collected while messages recovered from it are live")
	}
	// The buffer outlives the message the weak pointer was made from
	// while the rest of its segment's messages are live.
	for i, id := range first {
		if err := s2.Delete(id); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			runtime.GC()
			if bufFirst.Value() == nil {
				t.Fatal("the first segment's read buffer was collected under live messages")
			}
		}
	}
	runtime.GC()
	if bufFirst.Value() != nil {
		t.Error("the first segment's read buffer outlived every message recovered from it")
	}
	if bufSecond.Value() == nil {
		t.Error("the second segment's read buffer was collected under live messages")
	}
	for _, m := range s2.PendingFor("d", 0) {
		if !bytes.Equal(m.Payload, bytes.Repeat([]byte{'x'}, 1000)) {
			t.Fatalf("%s: payload changed after the collection", m.ID)
		}
	}
}

// weakPayload returns a weak pointer into the read buffer that id's
// recovered payload aliases.
func weakPayload(t *testing.T, s *Store, id string) weak.Pointer[byte] {
	t.Helper()
	for _, m := range s.PendingFor("d", 0) {
		if m.ID == id {
			return weak.Make(&m.Payload[0])
		}
	}
	t.Fatalf("%s not recovered", id)
	return weak.Pointer[byte]{}
}

// BenchmarkStoreOpen measures one Open over a backlog of 50k 1 KiB puts
// to 200 destinations in default-sized (4 MiB) segments: the replay a
// restarting mailbox waits out before it serves. Run it with -cpu 1,2 to
// see what reading ahead on a second core buys.
func BenchmarkStoreOpen(b *testing.B) {
	const records = 50000
	dir := filepath.Join(b.TempDir(), "wal")
	opts := Options{}
	s, err := Open(clock.Wall, dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'p'}, 1024)
	for i := 0; i < records; i++ {
		m := &Message{ID: fmt.Sprintf("urn:uuid:rec-%06d", i), Destination: fmt.Sprintf("mbox:%03d", i%200), Payload: payload}
		if err := s.Put(m); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(clock.Wall, dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := s.Len(); n != records {
			b.Fatalf("recovered %d messages, want %d", n, records)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		s = nil
		runtime.GC()
		b.StartTimer()
	}
}
