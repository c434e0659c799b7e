package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"time"

	l1hh "repro"
	"repro/internal/exact"
	"repro/pkg/hhclient"
)

// hhd-ingest parameters. The declared m runs to tens of millions, so
// Algorithm 2 samples at p = ℓ/m ≈ 0.06 and HTTP decode, ring dispatch
// and shard hashing do most of the work.
const (
	ingEps     = 0.01
	ingPhi     = 0.05
	ingSupport = 1 << 20 // Zipf support; stream.NewZipf materializes its CDF
	ingZipf    = 1.1
	ingPool    = 1 << 21 // distinct generated items, sent cyclically
	ingBody    = 4096    // items per open-loop POST
	ingRounds  = 8       // capacity-phase rounds; the rate is their median
	// ingCapRate and ingOpenRate fix the record counts (items/s of
	// budget). The capacity phase pushes ingCapRate·0.4·seconds items as
	// fast as the daemon acknowledges; the open-loop phase offers
	// ingOpenRate items/s, about half the measured capacity.
	ingCapRate    = 4_400_000
	ingOpenRate   = 1_600_000
	ingReadPeriod = 6 * time.Millisecond
)

// cyclicPool is a generated item sequence sent round and round; diff
// counts how often each position was acknowledged, so the exact tally
// covers exactly what the daemon accepted.
type cyclicPool struct {
	items []uint64
	body  []byte // items as little-endian uint64s
	diff  []int64
	next  int
}

func newCyclicPool(items []uint64) *cyclicPool {
	p := &cyclicPool{items: items, body: make([]byte, 8*len(items)), diff: make([]int64, len(items)+1)}
	for i, x := range items {
		binary.LittleEndian.PutUint64(p.body[8*i:], x)
	}
	return p
}

// take reserves the next n positions; n must not cross the pool's end.
func (p *cyclicPool) take(n int) int {
	if p.next+n > len(p.items) {
		p.next = 0
	}
	off := p.next
	p.next = (p.next + n) % len(p.items)
	return off
}

// acked records positions [off, off+n) as delivered once more.
func (p *cyclicPool) acked(off, n int) {
	p.diff[off]++
	p.diff[off+n]--
}

// tally returns the exact counts of everything acknowledged.
func (p *cyclicPool) tally() *exact.Counter {
	c := exact.New()
	run := int64(0)
	for i, x := range p.items {
		run += p.diff[i]
		for k := int64(0); k < run; k++ {
			c.Insert(x)
		}
	}
	return c
}

// timedTransport records each round trip's duration: the hhclient
// flush of one batch.
type timedTransport struct {
	rt     http.RoundTripper
	lat    samples
	parent int32 // span of the phase the round trips belong to
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := tr.begin("hhclient.post", t.parent, -1)
	st := time.Now()
	resp, err := t.rt.RoundTrip(r)
	t.lat.addDur(time.Since(st), time.Millisecond)
	tr.end(sp)
	return resp, err
}

func runHHDIngest(rc *runCtx) error {
	items := l1hh.Generate(l1hh.NewZipfStream(rc.seed*1_000_003+7, ingSupport, ingZipf), ingPool)
	pool := newCyclicPool(items)
	capRound := int(ingCapRate*0.5*rc.seconds/ingRounds) / ingBody * ingBody
	if capRound < ingBody {
		capRound = ingBody
	}
	openPosts := int(ingOpenRate * 0.5 * rc.seconds / ingBody)
	openDur := time.Duration(0.5 * rc.seconds * float64(time.Second))
	reads := int(openDur / ingReadPeriod)
	m := uint64(capRound*ingRounds + openPosts*ingBody)
	rc.ladder = ladderInput{items: items, m: m, eps: ingEps, phi: ingPhi, universe: ingSupport}

	d, setup, err := bootDaemon(rc, []string{"-shards", "2", "-m", strconv.FormatUint(m, 10),
		"-eps", fmt.Sprint(ingEps), "-phi", fmt.Sprint(ingPhi), "-universe", strconv.Itoa(ingSupport),
		"-seed", strconv.FormatUint(rc.seed, 10), "-shed-wait", "0"})
	if err != nil {
		return err
	}
	defer d.stop()
	setSetup(rc, setup)
	ingestConn, readConn := oneConn(), oneConn()
	pm, err := startMeter(rc, d, readConn)
	if err != nil {
		return err
	}

	// Closed-loop capacity through hhclient at its default batch size.
	phaseSpan := tr.begin("phase.capacity", -1, -1)
	tt := &timedTransport{rt: ingestConn.Transport, parent: phaseSpan}
	cl, err := hhclient.New(d.base, hhclient.WithHTTPClient(&http.Client{Transport: tt, Timeout: 30 * time.Second}),
		hhclient.WithQueueSize(capRound), hhclient.WithSeed(int64(rc.seed)))
	if err != nil {
		return err
	}
	var rates []float64
	capStart := time.Now()
	for r := 0; r < ingRounds; r++ {
		st := time.Now()
		for left := capRound; left > 0; {
			n := min(left, ingBody)
			off := pool.take(n)
			if k, err := cl.AddBatch(pool.items[off : off+n]); err != nil || k != n {
				return fmt.Errorf("hhclient AddBatch: %d of %d: %v", k, n, err)
			}
			pool.acked(off, n)
			left -= n
		}
		if err := cl.Flush(context.Background()); err != nil {
			return fmt.Errorf("hhclient Flush: %w", err)
		}
		rates = append(rates, float64(capRound)/time.Since(st).Seconds())
	}
	capDur := time.Since(capStart)
	_ = cl.Close(context.Background())
	tr.end(phaseSpan)
	st := cl.Stats()
	rc.attempted += int64(st.Enqueued / hhclient.DefaultBatchSize)
	rc.failed += int64(st.Retried)
	if st.Dropped > 0 || st.RetriedItems > 0 {
		// The tally cannot tell which items were dropped or sent twice.
		return errCorrectness{fmt.Errorf("hhclient dropped %d and resent %d items", st.Dropped, st.RetriedItems)}
	}
	rc.phase("capacity", int64(capRound*ingRounds), capDur, "closed loop, hhclient batch 4096, 1 connection")
	rc.layer.set("hhclient.flush_ms_p50", tt.lat.quantile(0.5), "ms", tt.lat.n())
	rc.layer.set("hhclient.retried_items", float64(st.RetriedItems), "count", 1)
	rc.layer.set("hhclient.dropped_items", float64(st.Dropped), "count", 1)

	// Open loop: raw binary POSTs at a fixed rate plus /report on a fixed
	// cadence, each on its own connection.
	phaseSpan = tr.begin("phase.open", -1, -1)
	writer := &loop{name: "ingest", interval: ingBody * time.Second / ingOpenRate, n: openPosts}
	writer.do = func(i int) error {
		off := pool.take(ingBody)
		sp := tr.begin("http.post /ingest", phaseSpan, int64(i))
		acc, err := post(ingestConn, d.base+"/ingest", "application/octet-stream", pool.body[8*off:8*(off+ingBody)])
		tr.end(sp)
		pool.acked(off, int(min(acc, ingBody)))
		if err == nil && acc != ingBody {
			err = fmt.Errorf("partial accept %d of %d", acc, ingBody)
		}
		return err
	}
	reader := &loop{name: "report", interval: ingReadPeriod, n: reads}
	reader.do = func(i int) error {
		sp := tr.begin("http.get /report", phaseSpan, int64(i))
		defer tr.end(sp)
		var rep hhdReport
		return getJSON(readConn, d.base+"/report", &rep)
	}
	openWall := runLoops(writer, reader)
	tr.end(phaseSpan)
	rc.phase("open", int64(openPosts*ingBody), openWall,
		fmt.Sprintf("open loop %d POST/s of %d items + GET /report every %v", int(ingOpenRate/ingBody), ingBody, ingReadPeriod))
	openLoopMetrics(rc, writer, reader)
	if err := pm.finish(rc, readConn, int64(m)); err != nil {
		return err
	}
	if err := d.alive(); err != nil {
		return err
	}

	var rep hhdReport
	if err := getJSON(readConn, d.base+"/report", &rep); err != nil {
		return fmt.Errorf("final /report: %w", err)
	}
	exactC := pool.tally()
	if rep.Len != exactC.Total() {
		return errCorrectness{fmt.Errorf("daemon len %d != acknowledged items %d", rep.Len, exactC.Total())}
	}
	if err := rc.acc.scoreHH("final /report", toEstimates(rep), exactC.Freq, heavySet(exactC, ingPhi), exactC.Total(), ingEps, ingPhi); err != nil {
		return errCorrectness{err}
	}
	rc.e2e.set("ingest_records_per_s", median(rates), "1/s", len(rates))
	rc.e2e.set("model_bits", float64(rep.ModelBits), "bit", 1)
	return nil
}

func toEstimates(rep hhdReport) []l1hh.ItemEstimate {
	out := make([]l1hh.ItemEstimate, len(rep.HeavyHitters))
	for i, h := range rep.HeavyHitters {
		out[i] = l1hh.ItemEstimate{Item: h.Item, F: h.Estimate}
	}
	return out
}
