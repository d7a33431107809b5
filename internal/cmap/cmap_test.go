package cmap

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	m := New[int]()
	m.Put("a", 1)
	m.Put("b", 2)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Fatal("Get(missing) reported present")
	}
}

func TestPutReplaces(t *testing.T) {
	m := New[string]()
	m.Put("k", "old")
	m.Put("k", "new")
	if v, _ := m.Get("k"); v != "new" {
		t.Fatalf("Get(k) = %q, want new", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestDelete(t *testing.T) {
	m := New[int]()
	m.Put("k", 1)
	if !m.Delete("k") {
		t.Fatal("Delete of present key returned false")
	}
	if m.Delete("k") {
		t.Fatal("Delete of absent key returned true")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after delete", m.Len())
	}
}

func TestGetOrCompute(t *testing.T) {
	m := New[int]()
	calls := 0
	f := func() int { calls++; return 42 }
	if v := m.GetOrCompute("k", f); v != 42 {
		t.Fatalf("GetOrCompute = %d", v)
	}
	if v := m.GetOrCompute("k", f); v != 42 {
		t.Fatalf("GetOrCompute (cached) = %d", v)
	}
	if calls != 1 {
		t.Fatalf("compute called %d times, want 1", calls)
	}
}

func TestUpdate(t *testing.T) {
	m := New[int]()
	inc := func(old int, _ bool) int { return old + 1 }
	for i := 0; i < 5; i++ {
		m.Update("counter", inc)
	}
	if v, _ := m.Get("counter"); v != 5 {
		t.Fatalf("counter = %d, want 5", v)
	}
}

func TestRangeVisitsAll(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%03d", i), i)
	}
	seen := map[string]bool{}
	m.Range(func(k string, v int) bool {
		if seen[k] {
			t.Fatalf("key %q visited twice", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("visited %d keys, want 100", len(seen))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := New[int]()
	for i := 0; i < 50; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	visits := 0
	m.Range(func(string, int) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Fatalf("visits = %d, want 5", visits)
	}
}

func TestKeysSnapshot(t *testing.T) {
	m := New[int]()
	want := []string{"a", "b", "c"}
	for i, k := range want {
		m.Put(k, i)
	}
	got := m.Keys()
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	m := New[int]()
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", i%7)
				m.Update(key, func(old int, _ bool) int { return old + 1 })
			}
		}()
	}
	wg.Wait()
	total := 0
	m.Range(func(_ string, v int) bool { total += v; return true })
	if total != workers*perWorker {
		t.Fatalf("total = %d, want %d", total, workers*perWorker)
	}
}

func TestNewSizedRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {32, 32}, {100, 128},
		{4096, 4096}, {1 << 20, 4096},
	} {
		if got := NewSized[int](tc.ask).Shards(); got != tc.want {
			t.Errorf("NewSized(%d).Shards() = %d, want %d", tc.ask, got, tc.want)
		}
	}
	if got := New[int]().Shards(); got != defaultShards {
		t.Errorf("New().Shards() = %d, want %d", got, defaultShards)
	}
}

func TestSingleShardStillCorrect(t *testing.T) {
	m := NewSized[int](1)
	for i := 0; i < 64; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if m.Len() != 64 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Get("k17"); !ok || v != 17 {
		t.Fatalf("Get(k17) = %d, %v", v, ok)
	}
	if v, ok := m.GetAndDelete("k17"); !ok || v != 17 {
		t.Fatalf("GetAndDelete(k17) = %d, %v", v, ok)
	}
	if _, ok := m.Get("k17"); ok {
		t.Fatal("k17 survived GetAndDelete")
	}
}

func TestGetAndDelete(t *testing.T) {
	m := New[int]()
	m.Put("k", 7)
	if v, ok := m.GetAndDelete("k"); !ok || v != 7 {
		t.Fatalf("GetAndDelete = %d, %v; want 7, true", v, ok)
	}
	if v, ok := m.GetAndDelete("k"); ok || v != 0 {
		t.Fatalf("second GetAndDelete = %d, %v; want 0, false", v, ok)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Concurrent claimants of the same key: exactly one wins per Put, across
// every stripe width including the degenerate single-lock map.
func TestConcurrentGetAndDeleteSingleClaimant(t *testing.T) {
	for _, shards := range []int{1, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := NewSized[int](shards)
			const keys, claimants = 50, 8
			for k := 0; k < keys; k++ {
				m.Put(fmt.Sprintf("k%d", k), k)
			}
			var wg sync.WaitGroup
			var claims [keys]int32
			var mu sync.Mutex
			for c := 0; c < claimants; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < keys; k++ {
						if v, ok := m.GetAndDelete(fmt.Sprintf("k%d", k)); ok {
							mu.Lock()
							claims[k]++
							mu.Unlock()
							if v != k {
								t.Errorf("claimed k%d = %d", k, v)
							}
						}
					}
				}()
			}
			wg.Wait()
			for k, n := range claims {
				if n != 1 {
					t.Errorf("key k%d claimed %d times, want exactly 1", k, n)
				}
			}
		})
	}
}

// Property: a Map behaves like a plain map under any sequence of Put and
// Delete operations.
func TestQuickMatchesPlainMap(t *testing.T) {
	type op struct {
		Key    string
		Value  int
		Delete bool
	}
	f := func(ops []op) bool {
		m := New[int]()
		ref := map[string]int{}
		for _, o := range ops {
			if o.Delete {
				m.Delete(o.Key)
				delete(ref, o.Key)
			} else {
				m.Put(o.Key, o.Value)
				ref[o.Key] = o.Value
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGetOrComputeSingleWinner checks that racing callers on
// one absent key run f exactly once and all see the winner's value.
func TestConcurrentGetOrComputeSingleWinner(t *testing.T) {
	m := New[int]()
	const workers = 32
	var calls atomic.Int64
	var wg sync.WaitGroup
	got := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- m.GetOrCompute("once", func() int { calls.Add(1); return w })
		}()
	}
	wg.Wait()
	close(got)
	if calls.Load() != 1 {
		t.Fatalf("f ran %d times, want exactly 1", calls.Load())
	}
	winner, _ := m.Get("once")
	for v := range got {
		if v != winner {
			t.Fatalf("a caller saw %d, want the stored %d", v, winner)
		}
	}
}
