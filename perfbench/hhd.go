package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// daemonBoots is how many times each hhd workload starts the daemon to
// measure set-up; the last boot serves the run.
const daemonBoots = 15

// bootDaemon starts hhd daemonBoots times with args, stopping all but
// the last, and records each exec-to-ready time.
func bootDaemon(rc *runCtx, args []string) (*daemon, *samples, error) {
	setup := &samples{}
	for i := 0; ; i++ {
		d, dur, err := startDaemon(rc.hhd, rc.tmp, args)
		if err != nil {
			return nil, nil, err
		}
		setup.addDur(dur, time.Second)
		if i == daemonBoots-1 {
			return d, setup, nil
		}
		d.stop()
	}
}

// loop is one open-loop request stream: request i is due at
// start + i·interval whatever happened to earlier requests, and its
// latency runs from that due time to its response, so a stall counts
// against every request it delays.
type loop struct {
	name     string
	interval time.Duration
	n        int
	do       func(i int) error
	lat      samples // ms from due time to response
	late     samples // ms from due time to send
	failed   atomic.Int64
}

func (l *loop) run(start time.Time) {
	for i := 0; i < l.n; i++ {
		due := start.Add(time.Duration(i) * l.interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l.late.addDur(time.Since(due), time.Millisecond)
		if err := l.do(i); err != nil {
			l.failed.Add(1)
		}
		l.lat.addDur(time.Since(due), time.Millisecond)
	}
}

// runLoops runs the loops concurrently from a common start and returns
// when all have finished.
func runLoops(loops ...*loop) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			l.run(start)
		}(l)
	}
	wg.Wait()
	return time.Since(start)
}

// httpErr is a non-2xx answer.
type httpErr struct {
	status int
	msg    string
}

func (e *httpErr) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.msg) }

// post sends body and returns how many records the daemon accepted,
// from the answer's "accepted" field, which a refusal also carries
// when a prefix was applied.
func post(c *http.Client, url, ctype string, body []byte) (uint64, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var ans struct {
		Accepted uint64 `json:"accepted"`
		Error    string `json:"error"`
	}
	_ = json.Unmarshal(b, &ans)
	if resp.StatusCode != http.StatusOK {
		return ans.Accepted, &httpErr{status: resp.StatusCode, msg: ans.Error}
	}
	return ans.Accepted, nil
}

// getJSON fetches url and decodes the JSON answer into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpErr{status: resp.StatusCode, msg: string(bytes.TrimSpace(b))}
	}
	return json.Unmarshal(b, out)
}

// hhdReport is the GET /report and /t/{t}/report body.
type hhdReport struct {
	Len          uint64 `json:"len"`
	ModelBits    int64  `json:"model_bits"`
	HeavyHitters []struct {
		Item     uint64  `json:"item"`
		Estimate float64 `json:"estimate"`
	} `json:"heavy_hitters"`
}

// phaseMeter brackets the measured phases: daemon CPU from /proc, the
// generator's own CPU, and (when tracing) the daemon's /metrics.
type phaseMeter struct {
	d        *daemon
	wall     time.Time
	dcpu     time.Duration
	gcpu     time.Duration
	scrape   promSample
	scrapeOK bool
}

func startMeter(rc *runCtx, d *daemon, c *http.Client) (*phaseMeter, error) {
	pm := &phaseMeter{d: d}
	if rc.tracing {
		s, err := scrape(c, d.base)
		if err != nil {
			return nil, err
		}
		pm.scrape, pm.scrapeOK = s, true
	}
	dc, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	pm.dcpu, pm.gcpu, pm.wall = dc, cpuTime(), time.Now()
	return pm, nil
}

// finish closes the bracket over records ingested: it sets
// cpu_ns_per_record and rss_peak_mib, the generator's CPU share, and
// when tracing the daemon-side layer metrics.
func (pm *phaseMeter) finish(rc *runCtx, c *http.Client, records int64) error {
	wall := time.Since(pm.wall)
	gcpu := cpuTime() - pm.gcpu
	dc, err := procCPU(pm.d.pid)
	if err != nil {
		return err
	}
	hwm, err := procStatusKB(pm.d.pid, "VmHWM")
	if err != nil {
		return err
	}
	daemonNs := float64((dc - pm.dcpu).Nanoseconds()) / float64(records)
	rc.e2e.set("cpu_ns_per_record", daemonNs, "ns", 1)
	rc.e2e.set("rss_peak_mib", float64(hwm)/1024, "MiB", 1)
	l := rc.layer
	l.set("loadgen.cpu_share", gcpu.Seconds()/(wall.Seconds()*generatorProcs), "ratio", 1)
	l.set("hhd.cpu_ns_per_record", daemonNs, "ns", 1)
	if !pm.scrapeOK {
		return nil
	}
	after, err := scrape(c, pm.d.base)
	if err != nil {
		return err
	}
	b := pm.scrape
	items := after.delta(b, "hhd_items_total") + after.delta(b, "hhd_votes_total")
	if items == 0 {
		items = float64(records)
	}
	perItem := func(stage string) float64 { return after.delta(b, stageSum(stage)) * 1e9 / items }
	meanMs := func(stage string) float64 {
		n := after.delta(b, stageCount(stage))
		if n == 0 {
			return 0
		}
		return after.delta(b, stageSum(stage)) * 1e3 / n
	}
	l.set("hhd.ingest_decode_ns_per_item", perItem("ingest_decode"), "ns", int(after.delta(b, stageCount("ingest_decode"))))
	l.set("hhd.batch_apply_ns_per_item", perItem("batch_apply"), "ns", int(after.delta(b, stageCount("batch_apply"))))
	// Shard enqueues wait only when a ring is full, which these open
	// loops avoid: the share of the phases' wall time spent waiting is
	// normally exactly 0, so it is a ratio, not a constant time.
	l.set("hhd.enqueue_wait_share", after.delta(b, stageSum("enqueue_wait"))/wall.Seconds(), "ratio", int(after.delta(b, stageCount("enqueue_wait"))))
	l.set("hhd.report_stage_ms", meanMs("report"), "ms", int(after.delta(b, stageCount("report"))))
	l.set("hhd.shed_responses", after.delta(b, "hhd_ingest_shed_total"), "count", 1)
	l.set("hhd.pool_spill_ms_mean", meanMs("pool_spill"), "ms", int(after.delta(b, stageCount("pool_spill"))))
	l.set("hhd.pool_revive_ms_mean", meanMs("pool_revive"), "ms", int(after.delta(b, stageCount("pool_revive"))))
	l.set("pool.spills", after.delta(b, poolField("evictions_total")), "count", 1)
	l.set("pool.revives", after.delta(b, poolField("revives_total")), "count", 1)
	return nil
}

// setSetup records the daemon's set-up time, the median over boots.
func setSetup(rc *runCtx, s *samples) {
	rc.e2e.set("setup_s", s.quantile(0.5), "s", s.n())
}

// openLoopMetrics records the open-loop figures shared by the hhd
// workloads.
func openLoopMetrics(rc *runCtx, writer, reader *loop) {
	rc.latency("ack", &writer.lat, writer.lat.quantile(0.5))
	rc.latency("report", &reader.lat, reader.lat.quantile(0.5))
	for _, l := range []*loop{writer, reader} {
		rc.phases = append(rc.phases, fmt.Sprintf("loop  %-14s n=%d late_p50=%.3fms late_p99=%.3fms lat_p90=%.3fms lat_p99=%.3fms",
			l.name, l.n, l.late.quantile(0.5), l.late.quantile(0.99), l.lat.quantile(0.9), l.lat.quantile(0.99)))
	}
	late := append(append([]float64(nil), writer.late.v...), reader.late.v...)
	rc.layer.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	rc.attempted += int64(writer.n + reader.n)
	rc.failed += writer.failed.Load() + reader.failed.Load()
}
