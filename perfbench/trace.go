package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own code around the call. Parent is the id of the span
// that caused it (-1 for a root); Req ties the spans of one request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and reads no clock.
type tracer struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

var tr = &tracer{}

func (t *tracer) enable() {
	t.on = true
	t.t0 = time.Now()
}

// begin opens a span and returns its id, or -1 when tracing is off or
// the span cap is reached.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() (names []string, self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			if c[0] > cur[1] {
				covered += cur[1] - cur[0]
				cur = c
			} else if c[1] > cur[1] {
				cur[1] = c[1]
			}
		}
		covered += cur[1] - cur[0]
		if _, ok := self[s.Name]; !ok {
			names = append(names, s.Name)
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	sort.Strings(names)
	return names, self, count
}

func (t *tracer) printSummary() {
	names, self, count := t.selfTimes()
	fmt.Printf("== trace self time (%d spans, %d dropped)\n", len(t.spans), t.dropped)
	for _, n := range names {
		fmt.Printf("  %-36s self=%12.3f ms  spans=%d\n", n, float64(self[n])/1e6, count[n])
	}
}
