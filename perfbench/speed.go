package main

import (
	"fmt"
	"math/bits"
	"time"
)

// speedMeter scales CPU-bound timings to a reference speed. A shared host
// runs the same CPU-bound work at a speed that changes by half from one
// few-second spell to the next — in thread CPU time as much as in wall
// time — and stays slow for whole runs while neighbours are busy, so no
// statistic over one run's samples removes it. A fixed reference kernel
// (refKernel) therefore runs between measured steps, while the system
// under test is idle, and a timing is multiplied by refNominal ÷ the
// kernel's time around it: the figures read as on a machine where the
// kernel takes refNominal. The kernel is this package's own code, so a
// change to the repository does not move it. Over 40 s in which
// lib-dense's raw epoch time moved by 55%, the ratio of epoch to kernel
// time held within ±4%.
//
// Only lib-dense uses it. Run between the daemon workloads' capacity
// rounds, the kernel shares the machine with a daemon still finishing
// its work, and the scaled figures spread more than the raw ones did
// (hhd-ingest daemon CPU per record: 0.11 of the median against 0.03
// over the same five seeds), so those stay raw.
type speedMeter struct {
	last time.Duration
	refs []float64 // kernel times, ms
}

// refNominal is the kernel time timings are scaled to: close to its time
// on an idle core of a 2-vCPU Intel Xeon, so scaled figures read near
// that machine's best.
const refNominal = 3 * time.Millisecond

// newSpeedMeter runs the kernel once, as the first bracket of the first
// step.
func newSpeedMeter() *speedMeter {
	s := &speedMeter{}
	s.sample()
	return s
}

// scale runs the kernel and returns refNominal ÷ the mean of this and the
// previous run: the factor that takes a time measured in between to
// reference speed (a rate is divided by it).
func (s *speedMeter) scale() float64 {
	prev := s.last
	s.sample()
	return float64(refNominal) / float64((prev+s.last)/2)
}

// sample runs the kernel once more.
func (s *speedMeter) sample() {
	s.last = refKernel()
	s.refs = append(s.refs, float64(s.last)/float64(time.Millisecond))
}

// record adds the kernel's times, the machine's speed, to the
// environment record.
func (s *speedMeter) record(rc *runCtx) {
	rc.phases = append(rc.phases, fmt.Sprintf("machine reference kernel: n=%d p10=%.3fms p50=%.3fms p90=%.3fms (scaled timings read as at %v)",
		len(s.refs), quantile(s.refs, 0.1), median(s.refs), quantile(s.refs, 0.9), refNominal))
}

var refSink uint64

// refKernel runs a fixed mix of the engine's kinds of work — a xorshift
// generator, a 61-bit multiply-mod hash, counter-table increments and a
// small map with churn — and returns its wall time.
func refKernel() time.Duration {
	t := time.Now()
	m := make(map[uint64]uint32, 1024)
	tab := make([]uint32, 1<<12)
	x := uint64(88172645463325252)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hi, lo := bits.Mul64(x, 0x9E3779B97F4A7C15)
		h := (lo & (1<<61 - 1)) + (lo>>61 | hi<<3)
		tab[h&(1<<12-1)]++
		k := x & 2047
		if v, ok := m[k]; ok && v > 3 {
			delete(m, k)
		} else {
			m[k] = v + 1
		}
	}
	refSink += uint64(len(m)) + uint64(tab[5])
	return time.Since(t)
}
