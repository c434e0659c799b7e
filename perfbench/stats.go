package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// samples collects one timing series. It is safe for concurrent use
// because the open-loop writer and reader record from their own
// goroutines.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1), or NaN when
// the series is empty.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// beyond reports how many samples lie strictly above the q-quantile: the
// support a tail percentile rests on.
func (s *samples) beyond(q float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := quantile(s.v, q)
	k := 0
	for _, x := range s.v {
		if x > t {
			k++
		}
	}
	return k
}

// metric is one reported figure. n is the number of samples behind it
// (1 for a single measurement); it is printed, not emitted in the JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// metrics is an ordered metric set: the JSON map sorts keys, the human
// table keeps insertion order.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string, n int) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, n: n}
}

func (ms *metrics) print(title string) {
	fmt.Printf("== %s\n", title)
	for _, k := range ms.order {
		m := ms.m[k]
		fmt.Printf("  %-36s %16.6g %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
}

// cpuTime returns the CPU time (user+system) this process has used.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID = 2: nanosecond-resolution process CPU.
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return time.Duration(ts.Nano())
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU fields; it is 100
// on every Linux ABI Go supports.
const clkTck = 100

// procCPU returns utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// After the command field: state is f[0]; utime and stime are stat
	// fields 14 and 15, i.e. f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procStatusKB returns a "Vm*" field of /proc/<pid>/status in KiB.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line[len(field)+1:])
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler tracks the peak VmRSS of this process above a baseline by
// polling, because VmHWM also covers input generation.
type rssSampler struct {
	base int64
	peak int64
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	base, _ := procStatusKB(os.Getpid(), "VmRSS")
	r := &rssSampler{base: base, peak: base, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v, err := procStatusKB(os.Getpid(), "VmRSS"); err == nil && v > r.peak {
				r.peak = v
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the peak above the baseline in
// MiB.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	return float64(r.peak-r.base) / 1024
}
