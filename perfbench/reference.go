package main

import "time"

// The reference loop calibrates host speed. On a shared host the same
// simulation can run 2x slower for seconds at a time (measured on a
// 2-CPU x86-64 VM: two start-storm runs of one seed took 10.5 and 5.1 ms
// per operation), which moves every host time a run takes. The loop is
// timed just before and just after each operation and slows down with
// the host, if by less (1.37x against the simulator's 1.76x in the slow
// spells of a 200-second start-storm log), so an operation's time divided
// by the loop's cancels much of that. The loop is the benchmark's own
// code: a change to the simulator moves the ratio in full.
//
// Its working set, 64 KiB of table read and written at xorshift-random
// slots with a data-dependent branch, is cache-resident like the
// simulator's hot tables. In the same log, loops over a 4 or 8 MiB table,
// or a mix of both sizes, tracked the slow spells worse.
const (
	refWords = 1 << 13
	refIters = 16384
)

// reference runs the loop once over the bench's table and returns its
// host time in ms.
func (b *bench) reference() float64 {
	t := time.Now()
	x, acc := uint64(0x2545f4914f6cdd1d), uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & (refWords - 1)
		v := b.refTable[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		b.refTable[j] = v + x
	}
	b.refTable[0] += acc
	return msSince(t)
}
