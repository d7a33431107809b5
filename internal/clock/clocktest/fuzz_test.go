package clocktest

import (
	"testing"
	"time"
)

// FuzzVirtualDifferential feeds arbitrary (op, delay) byte sequences to
// the heap-backed Virtual and the frozen refclock oracle in lockstep
// (pumps stopped, so both are fully deterministic) and asserts identical
// Stop/Reset verdicts, pending counts, and fire times.
//
// The encoding keeps every input byte meaningful: each op consumes one
// opcode byte and up to two delay bytes, so the fuzzer can reach deep
// schedules — overdue arms (delay 0), far deadlines, reset-after-fire,
// advance-past-everything — without a grammar.
func FuzzVirtualDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 3, 50, 1, 0, 2, 30, 3, 255, 255})
	f.Add([]byte{0, 0, 3, 0, 0, 1, 3, 1, 2, 0, 3, 2})
	// Far deadlines: delays of many seconds mixed with near ones and
	// stops deep inside the heap.
	f.Add([]byte{0, 255, 7, 0, 2, 1, 3, 255, 120, 3, 255, 200, 1, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 3, 4, 2, 5, 3, 4, 1, 1, 3, 255, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := newVirtualPair()
		var timers []*timerPair

		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		// delay derives a duration from up to two bytes, in 250µs steps
		// from 0 to about 16s.
		delay := func() time.Duration {
			lo, _ := next()
			hi, _ := next()
			return time.Duration(int64(hi)<<8|int64(lo)) * 250 * time.Microsecond
		}

		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0: // create
				if len(timers) >= 64 {
					continue
				}
				d := delay()
				timers = append(timers, &timerPair{
					impl:   p.impl.NewTimer(d),
					oracle: p.oracle.NewTimer(d),
				})
			case 1: // stop
				if len(timers) == 0 {
					continue
				}
				i, _ := next()
				tp := timers[int(i)%len(timers)]
				if wv, ov := tp.impl.Stop(), tp.oracle.Stop(); wv != ov {
					t.Fatalf("Stop verdict clock=%v oracle=%v", wv, ov)
				}
			case 2: // reset (drained on both sides, see differential_test.go)
				if len(timers) == 0 {
					continue
				}
				i, _ := next()
				tp := timers[int(i)%len(timers)]
				p.drain(t, int(i), tp)
				d := delay()
				if wv, ov := tp.impl.Reset(d), tp.oracle.Reset(d); wv != ov {
					t.Fatalf("Reset verdict clock=%v oracle=%v", wv, ov)
				}
			case 3: // advance
				d := delay()
				p.impl.Advance(d)
				p.oracle.Advance(d)
				if wp, op_ := p.impl.Pending(), p.oracle.Pending(); wp != op_ {
					t.Fatalf("Pending clock=%d oracle=%d", wp, op_)
				}
				for i, tp := range timers {
					p.drain(t, i, tp)
				}
			}
		}
		p.impl.Advance(24 * time.Hour)
		p.oracle.Advance(24 * time.Hour)
		for i, tp := range timers {
			p.drain(t, i, tp)
		}
		if wp, op_ := p.impl.Pending(), p.oracle.Pending(); wp != op_ {
			t.Fatalf("final Pending clock=%d oracle=%d", wp, op_)
		}
	})
}
