package clock

import (
	"testing"
	"time"
)

// BenchmarkTimer reports the timers' hot operations. Reset is the path
// the dispatchers lean on (hold-open re-arms, pooled anonymous-wait
// timers, netsim read waits): it must be allocation-free on both clocks.
func BenchmarkTimer(b *testing.B) {
	b.Run("real/reset", func(b *testing.B) {
		tm := Wall.NewTimer(time.Hour)
		defer tm.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(time.Hour)
		}
	})
	b.Run("real/new+stop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Wall.NewTimer(time.Hour).Stop()
		}
	})
	b.Run("virtual/reset", func(b *testing.B) {
		v := NewVirtual(time.Unix(0, 0))
		defer v.Stop()
		tm := v.NewTimer(time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(time.Hour)
		}
	})
	b.Run("virtual/fire", func(b *testing.B) {
		// One registration + one pump-free advance + one drain per
		// iteration: the full life of a netsim read-wait timer.
		v := NewVirtual(time.Unix(0, 0))
		v.Stop()
		tm := v.NewTimer(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Advance(time.Millisecond)
			<-tm.C
			tm.Reset(time.Millisecond)
		}
	})
}
