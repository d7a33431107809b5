package wal

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestWALAppendSteadyStateAllocs is the CI allocation gate for the
// append hot path: encoding rides a pooled scratch and the frame leaves
// in one write, so a steady-state append allocates NOTHING. Runs with
// the pool checker on (TestMain), like the codec gates. The window runs
// on a stopped clock, so the count is Append's own and not a background
// fsync goroutine's.
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Config{Clock: stoppedClock(), SegmentSize: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := []byte("a typical store record: op byte, ids, timestamps, payload bytes")
	enc := func(dst []byte) []byte { return append(dst, payload...) }
	for i := 0; i < 16; i++ { // warm the pool and the file
		if err := l.Append(enc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.Append(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WAL append allocates %.1f times per record; the budget is zero", allocs)
	}
}

// BenchmarkWALAppend measures one 256-byte record append per op under
// group commit: the encode+write path, with the window's fsync
// amortized across every append made in it.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	enc := func(dst []byte) []byte { return append(dst, payload...) }
	dir := filepath.Join(b.TempDir(), "wal")
	l, err := Open(dir, Config{SegmentSize: 1 << 30}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecovery measures a full Open over a 4096-record log —
// the recovery-replay cost a restarting dispatcher pays before serving.
func BenchmarkWALRecovery(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "wal")
	const records = 4096
	l, err := Open(dir, Config{SegmentSize: 1 << 20}, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	enc := func(dst []byte) []byte { return append(dst, payload...) }
	for i := 0; i < records; i++ {
		if err := l.Append(enc); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		l, err := Open(dir, Config{SegmentSize: 1 << 20}, func(rec []byte) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatal(fmt.Errorf("replayed %d records, want %d", n, records))
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}
