package cmap

import (
	"fmt"
	"sort"
	"strings"
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

// Range releases each stripe's lock before calling f, so f may write the
// map, including the stripe it is visiting, without deadlocking.
func TestRangeCallbackMayWriteMap(t *testing.T) {
	m := New[int]()
	for i := 0; i < 200; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	m.Range(func(k string, v int) bool {
		if strings.HasPrefix(k, "moved-") {
			return true // written during this Range; it may be visited
		}
		if !m.Delete(k) {
			t.Errorf("Delete(%q) inside Range found nothing", k)
		}
		m.Put("moved-"+k, v)
		return true
	})
	for i := 0; i < 200; i++ {
		if _, ok := m.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d survived its Delete inside Range", i)
		}
	}
	for i := 0; i < 200; i++ {
		if v, ok := m.Get(fmt.Sprintf("moved-k%d", i)); !ok || v != i {
			t.Fatalf("Get(moved-k%d) = %d, %v", i, v, ok)
		}
	}
}

// The measured gain of striping needs keys to reach every stripe: a
// shard function that sent all keys to one stripe would pass every
// functional test and still serialize the dispatcher's hot maps.
func TestKeysSpreadOverEveryStripe(t *testing.T) {
	m := New[int]()
	if len(m.shards) != shardCount {
		t.Fatalf("%d stripes, want %d", len(m.shards), shardCount)
	}
	const perStripe = 64
	for i := 0; i < shardCount*perStripe; i++ {
		m.Put(fmt.Sprintf("urn:uuid:%08x", i), i)
	}
	for i := range m.shards {
		// Binomial(4096, 1/64) has mean 64 and s.d. 8: an empty stripe or
		// one holding 3x its share is a broken hash, not chance.
		if n := len(m.shards[i].m); n == 0 || n > 3*perStripe {
			t.Errorf("stripe %d holds %d of %d keys", i, n, shardCount*perStripe)
		}
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

// Concurrent claimants of the same key: exactly one wins per Put.
func TestConcurrentGetAndDeleteSingleClaimant(t *testing.T) {
	m := New[int]()
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
