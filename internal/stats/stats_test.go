package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(4)
	g.Add(-5)
	if g.Value() != 2 {
		t.Fatalf("Value = %d, want 2", g.Value())
	}
	if g.Peak() != 7 {
		t.Fatalf("Peak = %d, want 7", g.Peak())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMeanAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Mean(); got != 50*time.Millisecond+500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := h.Quantile(0.5); !withinQuantileError(got, 50*time.Millisecond) {
		t.Fatalf("p50 = %v, want 50ms ± 1/128", got)
	}
	if got := h.Quantile(0.99); !withinQuantileError(got, 99*time.Millisecond) {
		t.Fatalf("p99 = %v, want 99ms ± 1/128", got)
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

// withinQuantileError reports whether got is within Quantile's stated
// relative error of the exact quantile want.
func withinQuantileError(got, want time.Duration) bool {
	d := got - want
	return d >= -want/128 && d <= want/128
}

// TestHistogramQuantileError pins Quantile against exact nearest-rank
// quantiles of 100k log-uniform samples from 1 ns to 10 s, and checks
// that Count, Mean, Min and Max are exact.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h Histogram
	samples := make([]time.Duration, 100_000)
	var sum time.Duration
	for i := range samples {
		d := time.Duration(math.Exp(rng.Float64() * math.Log(float64(10*time.Second))))
		samples[i] = d
		sum += d
		h.Observe(d)
	}
	slices.Sort(samples)
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		want := samples[int(math.Ceil(q*float64(len(samples))))-1]
		if got := h.Quantile(q); !withinQuantileError(got, want) {
			t.Errorf("Quantile(%v) = %v, exact %v: error above 1/128", q, got, want)
		}
	}
	if h.Count() != len(samples) || h.Mean() != sum/time.Duration(len(samples)) ||
		h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Errorf("Count/Mean/Min/Max = %d/%v/%v/%v, want %d/%v/%v/%v", h.Count(), h.Mean(), h.Min(), h.Max(),
			len(samples), sum/time.Duration(len(samples)), samples[0], samples[len(samples)-1])
	}
}

// TestHistogramConstantMemory: Observe allocates nothing, so a histogram
// that has seen a million samples takes the memory of an empty one.
func TestHistogramConstantMemory(t *testing.T) {
	var h Histogram
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1_000_000, func() {
		d += 997 * time.Nanosecond
		h.Observe(d)
	}); allocs != 0 {
		t.Fatalf("Observe allocated %.2f times per sample, want 0", allocs)
	}
	if h.Count() != 1_000_001 {
		t.Fatalf("Count = %d, want 1000001", h.Count())
	}
}

// TestHistogramConcurrentObserve: observers on several goroutines lose no
// sample and keep Min and Max exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(time.Duration(g * i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 || h.Min() != 1 || h.Max() != 4000 {
		t.Fatalf("Count/Min/Max = %d/%v/%v, want 4000/1ns/4µs", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	if h.Quantile(-1) != 5*time.Millisecond || h.Quantile(2) != 5*time.Millisecond {
		t.Fatal("out-of-range quantiles should clamp")
	}
}

// Property: quantiles are monotonically non-decreasing in q and bounded by
// observed min and max.
func TestQuickQuantileMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		min, max := time.Duration(math.MaxInt64), time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			h.Observe(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportPerMinute(t *testing.T) {
	r := RunReport{Transmitted: 300, Elapsed: 30 * time.Second}
	if got := r.PerMinute(); got != 600 {
		t.Fatalf("PerMinute = %v, want 600", got)
	}
	zero := RunReport{}
	if zero.PerMinute() != 0 {
		t.Fatal("zero report PerMinute should be 0")
	}
}

func TestRunReportLossRatio(t *testing.T) {
	r := RunReport{Transmitted: 75, NotSent: 25}
	if got := r.LossRatio(); got != 0.25 {
		t.Fatalf("LossRatio = %v, want 0.25", got)
	}
	if (RunReport{}).LossRatio() != 0 {
		t.Fatal("empty report LossRatio should be 0")
	}
}

func TestRunReportString(t *testing.T) {
	r := RunReport{Series: "Dispatcher", Clients: 100, Elapsed: time.Minute, Transmitted: 5000, NotSent: 10}
	s := r.String()
	for _, want := range []string{"Dispatcher", "clients=100", "transmitted=5000", "not_sent=10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	h.Observe(time.Duration(math.MaxInt64))
	if h.Min() != 0 || h.Max() != time.Duration(math.MaxInt64) || h.Quantile(0.5) != 0 {
		t.Fatalf("Min/Max/p50 = %v/%v/%v", h.Min(), h.Max(), h.Quantile(0.5))
	}
	if got := histBucket(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("largest duration in bucket %d, want the last, %d", got, histBuckets-1)
	}
}
