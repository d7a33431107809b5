// Package stats collects the measurements the paper's test client reports:
// calls made, packets transmitted vs. not sent (Figure 4), and messages per
// minute (Figures 5 and 6), plus latency histograms used by the ablation
// benchmarks.
//
// All types are safe for concurrent use; the load generator updates them
// from hundreds of client goroutines.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing concurrent counter.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a concurrent instantaneous value with a high-water mark.
type Gauge struct {
	mu   sync.Mutex
	v    int64
	peak int64
}

// Set assigns the gauge.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	g.v = v
	if v > g.peak {
		g.peak = v
	}
	g.mu.Unlock()
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	g.mu.Lock()
	g.v += delta
	if g.v > g.peak {
		g.peak = g.v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Peak returns the highest value ever set.
func (g *Gauge) Peak() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Histogram records durations in fixed log-linear buckets: exact below
// 128 ns, then 64 buckets per power of two. Its memory is constant (about
// 30 KB) whatever the number of observations, and Observe takes no lock.
// Count, Mean, Min and Max are exact; Quantile is within 1/128 of the
// exact nearest-rank quantile.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64  // nanoseconds
	max     atomic.Int64  // nanoseconds
	minNot  atomic.Uint64 // ^min in nanoseconds, so the zero value means "none yet"
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// The largest duration, 1<<63 - 1, shifts right by 63-histSubBits-1
	// and lands in the last bucket.
	histBuckets = (64 - histSubBits) * histSub
)

// histBucket returns the bucket of a non-negative value: the value itself
// below 2*histSub, else its top histSubBits+1 bits placed after the
// buckets of the smaller powers of two.
func histBucket(v uint64) int {
	e := max(bits.Len64(v)-histSubBits-1, 0)
	return e*histSub + int(v>>e)
}

// histMid returns the middle of bucket b's value range.
func histMid(b int) int64 {
	if b < 2*histSub {
		return int64(b)
	}
	e := b/histSub - 1
	return int64(b-e*histSub)<<e + 1<<(e-1)
}

// Observe records one sample; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := max(int64(d), 0)
	h.buckets[histBucket(uint64(v))].Add(1)
	h.sum.Add(v)
	for cur := h.max.Load(); v > cur && !h.max.CompareAndSwap(cur, v); cur = h.max.Load() {
	}
	for cur := h.minNot.Load(); ^uint64(v) > cur && !h.minNot.CompareAndSwap(cur, ^uint64(v)); cur = h.minNot.Load() {
	}
	h.count.Add(1) // last, so a reader that sees the count sees the rest
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count.Load()) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest rank, within
// 1/128 of the exact value, or 0 with no samples. Quantile(0) and
// Quantile(1) are the exact Min and Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	lo, hi := h.Min(), h.Max()
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	rank := max(uint64(math.Ceil(q*float64(n))), 1)
	var seen uint64
	for b := range h.buckets {
		if seen += h.buckets[b].Load(); seen >= rank {
			return min(max(time.Duration(histMid(b)), lo), hi)
		}
	}
	return hi
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(^h.minNot.Load())
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// RunReport is the per-configuration record the paper's test client prints:
// one row of a figure. Rates are normalized to a per-minute basis from the
// virtual elapsed time so short scaled runs remain comparable to the
// paper's one-minute runs.
type RunReport struct {
	Series      string        // e.g. "Direct WS", "Dispatcher"
	Clients     int           // concurrent client connections
	Elapsed     time.Duration // virtual duration of the run
	Transmitted int64         // requests completed end-to-end
	NotSent     int64         // requests lost (refused/timed out)
	Errors      int64         // transport errors after acceptance
	MeanRTT     time.Duration
	P99RTT      time.Duration
}

// PerMinute returns Transmitted normalized to messages per minute.
func (r RunReport) PerMinute() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Transmitted) / r.Elapsed.Minutes()
}

// LossRatio returns NotSent / (Transmitted + NotSent), or 0 when nothing
// was attempted.
func (r RunReport) LossRatio() float64 {
	total := r.Transmitted + r.NotSent
	if total == 0 {
		return 0
	}
	return float64(r.NotSent) / float64(total)
}

// String renders one gnuplot-style data row matching the paper's plots.
func (r RunReport) String() string {
	return fmt.Sprintf("%-28s clients=%-5d transmitted=%-8d not_sent=%-8d msg/min=%-9.0f loss=%5.1f%% mean_rtt=%-10v p99_rtt=%v",
		r.Series, r.Clients, r.Transmitted, r.NotSent, r.PerMinute(), 100*r.LossRatio(), r.MeanRTT, r.P99RTT)
}
