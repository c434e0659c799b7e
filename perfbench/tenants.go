package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"time"

	l1hh "repro"
	"repro/internal/exact"
)

// hhd-tenants parameters. Tenant engines are serial Algorithm 2 sketches
// at ε = 0.1 behind a pool whose budget holds tenResident engines, so
// the popular head stays resident and the tail spills and revives.
const (
	tenCount    = 2048
	tenEps      = 0.1
	tenPhi      = 0.3
	tenM        = 8192 // declared per-tenant length; ≤ ℓ, so p = 1
	tenSupport  = 1024
	tenItemZipf = 1.5 // item skew inside a tenant: one or two ϕ-heavy items
	tenPopZipf  = 1.1 // tenant popularity
	tenBatch    = 256 // items per request
	tenBodies   = 1024
	tenResident = 256 // budget in engines: the hot set
	// tenGateMin is the shortest tenant stream scored under the (ε,ϕ)
	// guarantee. Below a few thousand items Algorithm 2's estimator
	// error approaches εm at ε = 0.1 (README.md, "Short tenant
	// streams"); every tenant, long or short, must match an in-process
	// replay of its stream exactly.
	tenGateMin = 4096
	// Request rates that fix the record counts: the capacity phase sends
	// tenCapRate·0.4·seconds requests as fast as they are answered, the
	// open loop offers tenOpenRate requests/s, about half the capacity.
	tenCapRate    = 1900
	tenOpenRate   = 700
	tenReadPeriod = 6 * time.Millisecond
	tenRounds     = 8
)

// tenantTrace is the generated request sequence: request i writes body
// reqBody[i] to tenant reqTenant[i].
type tenantTrace struct {
	names     []string
	bodies    [][]uint64
	bodyBytes [][]byte
	reqTenant []int32
	reqBody   []int32
	popular   *rand.Zipf // popularity rank, for reads
	rank      []int      // popularity rank → tenant
}

func newTenantTrace(seed uint64, requests int) *tenantTrace {
	t := &tenantTrace{names: make([]string, tenCount)}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("tenant-%04d", i)
	}
	for b := 0; b < tenBodies; b++ {
		items := l1hh.Generate(l1hh.NewZipfStream(seed*7919+uint64(b), tenSupport, tenItemZipf), tenBatch)
		buf := make([]byte, 8*len(items))
		for i, x := range items {
			binary.LittleEndian.PutUint64(buf[8*i:], x)
		}
		t.bodies = append(t.bodies, items)
		t.bodyBytes = append(t.bodyBytes, buf)
	}
	r := rand.New(rand.NewSource(int64(seed)))
	// Popularity rank → tenant, so the hot set differs by seed.
	t.rank = r.Perm(tenCount)
	z := rand.NewZipf(r, tenPopZipf, 1, tenCount-1)
	t.reqTenant = make([]int32, requests)
	t.reqBody = make([]int32, requests)
	for i := range t.reqTenant {
		t.reqTenant[i] = int32(t.rank[z.Uint64()])
		t.reqBody[i] = int32(r.Intn(tenBodies))
	}
	t.popular = rand.NewZipf(rand.New(rand.NewSource(int64(seed)+1)), tenPopZipf, 1, tenCount-1)
	return t
}

func tenantURL(base, name, op string) string {
	return base + "/t/" + url.PathEscape(name) + "/" + op
}

func runHHDTenants(rc *runCtx) error {
	capReqs := int(tenCapRate*0.5*rc.seconds) / tenRounds * tenRounds
	openReqs := int(tenOpenRate * 0.5 * rc.seconds)
	trace := newTenantTrace(rc.seed, capReqs+openReqs)
	openDur := time.Duration(0.5 * rc.seconds * float64(time.Second))
	reads := int(openDur / tenReadPeriod)
	var items []uint64
	for _, b := range trace.bodies {
		items = append(items, b...)
	}
	rc.ladder = ladderInput{items: items, m: tenM, eps: tenEps, phi: tenPhi, universe: tenSupport, tenants: trace}

	probe, err := l1hh.New(tenantOptions()...)
	if err != nil {
		return err
	}
	budget := tenResident * probe.ModelBits()
	d, setup, err := bootDaemon(rc, []string{"-tenants", "-tenant-budget-bits", strconv.FormatInt(budget, 10),
		"-m", strconv.Itoa(tenM), "-eps", fmt.Sprint(tenEps), "-phi", fmt.Sprint(tenPhi),
		"-universe", strconv.Itoa(tenSupport), "-seed", strconv.FormatUint(rc.seed, 10), "-shed-wait", "0"})
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

	acked := make([]int, len(trace.reqTenant)) // items the daemon accepted, per request
	send := func(i int, parent int32) error {
		t, b := trace.reqTenant[i], trace.reqBody[i]
		sp := tr.begin("http.post /t/{t}/ingest", parent, int64(i))
		acc, err := post(ingestConn, tenantURL(d.base, trace.names[t], "ingest"), "application/octet-stream", trace.bodyBytes[b])
		tr.end(sp)
		acked[i] = int(min(acc, tenBatch))
		if err == nil && acc != tenBatch {
			err = fmt.Errorf("partial accept %d of %d", acc, tenBatch)
		}
		return err
	}

	// Closed-loop capacity: requests back to back on one connection.
	phaseSpan := tr.begin("phase.capacity", -1, -1)
	var rates []float64
	per := capReqs / tenRounds
	capStart := time.Now()
	for r := 0; r < tenRounds; r++ {
		st := time.Now()
		for i := r * per; i < (r+1)*per; i++ {
			rc.attempted++
			if err := send(i, phaseSpan); err != nil {
				rc.failed++
			}
		}
		rates = append(rates, float64(per*tenBatch)/time.Since(st).Seconds())
	}
	tr.end(phaseSpan)
	rc.phase("capacity", int64(capReqs*tenBatch), time.Since(capStart), fmt.Sprintf("closed loop, %d-item requests over %d tenants, 1 connection", tenBatch, tenCount))

	// Open loop: tenant writes at a fixed rate plus reads of a hot/cold
	// mix on a fixed cadence.
	phaseSpan = tr.begin("phase.open", -1, -1)
	writer := &loop{name: "ingest", interval: time.Second / tenOpenRate, n: openReqs}
	writer.do = func(i int) error { return send(capReqs+i, phaseSpan) }
	readRand := rand.New(rand.NewSource(int64(rc.seed) + 2))
	reader := &loop{name: "report", interval: tenReadPeriod, n: reads}
	reader.do = func(i int) error {
		t := readRand.Intn(tenCount) // cold half: any tenant
		if i%2 == 0 {
			t = trace.rank[trace.popular.Uint64()] // hot half: by popularity
		}
		sp := tr.begin("http.get /t/{t}/report", phaseSpan, int64(i))
		defer tr.end(sp)
		var rep hhdReport
		err := getJSON(readConn, tenantURL(d.base, trace.names[t], "report"), &rep)
		if he, ok := err.(*httpErr); ok && he.status == 404 {
			return nil // not yet written: an answer, not a failure
		}
		return err
	}
	openWall := runLoops(writer, reader)
	tr.end(phaseSpan)
	rc.phase("open", int64(openReqs*tenBatch), openWall,
		fmt.Sprintf("open loop %d POST/s + GET /t/{t}/report every %v (half by popularity, half uniform)", tenOpenRate, tenReadPeriod))
	openLoopMetrics(rc, writer, reader)
	total := int64((capReqs + openReqs) * tenBatch)
	if err := pm.finish(rc, readConn, total); err != nil {
		return err
	}
	if rc.tracing {
		rc.layer.set("pool.revives_per_request", rc.layer.m["pool.revives"].Value/float64(capReqs+openReqs+reads), "ratio", 1)
	}
	after, err := scrape(readConn, d.base)
	if err != nil {
		return err
	}
	rc.e2e.set("model_bits", after[poolField("model_bits_in_use")], "bit", 1)
	rc.e2e.set("ingest_records_per_s", median(rates), "1/s", len(rates))
	if err := d.alive(); err != nil {
		return err
	}

	// Every tenant's final report must equal an in-process engine fed
	// the same acknowledged stream (spill and revive lose nothing), and
	// tenants long enough for the guarantee are scored against their
	// exact tally.
	byTenant := make([][]int32, tenCount)
	for i, t := range trace.reqTenant {
		byTenant[t] = append(byTenant[t], int32(i))
	}
	for t, reqs := range byTenant {
		if len(reqs) == 0 {
			continue
		}
		ref, err := l1hh.New(append(tenantOptions(), l1hh.WithSeed(rc.seed))...)
		if err != nil {
			return err
		}
		c := exact.New()
		for _, i := range reqs {
			items := trace.bodies[trace.reqBody[i]][:acked[i]]
			if err := ref.InsertBatch(items); err != nil {
				return err
			}
			for _, x := range items {
				c.Insert(x)
			}
		}
		var rep hhdReport
		if err := getJSON(readConn, tenantURL(d.base, trace.names[t], "report"), &rep); err != nil {
			return fmt.Errorf("final report of %s: %w", trace.names[t], err)
		}
		got, want := toEstimates(rep), ref.Report()
		if rep.Len != c.Total() || !slices.Equal(got, want) {
			return errCorrectness{fmt.Errorf("%s: daemon report (len %d) %v differs from the in-process replay (len %d) %v",
				trace.names[t], rep.Len, got, c.Total(), want)}
		}
		if c.Total() < tenGateMin {
			continue
		}
		if err := rc.acc.scoreHH(trace.names[t], got, c.Freq, heavySet(c, tenPhi), c.Total(), tenEps, tenPhi); err != nil {
			return errCorrectness{err}
		}
	}
	return nil
}

// tenantOptions mirrors the options hhd builds each tenant engine with.
func tenantOptions() []l1hh.Option {
	return []l1hh.Option{l1hh.WithEps(tenEps), l1hh.WithPhi(tenPhi), l1hh.WithStreamLength(tenM),
		l1hh.WithUniverse(tenSupport)}
}
