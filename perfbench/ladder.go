package main

import (
	"fmt"
	"math"
	"time"

	l1hh "repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/sample"
)

// ladderInput is what a workload hands the layer ladder: its generated
// items and sketch parameters, and its tenant trace or ballots when it
// has them. Layers a workload does not exercise get a seed-derived
// stand-in input, so every row is measured on every workload.
type ladderInput struct {
	items    []uint64
	m        uint64
	eps, phi float64
	universe uint64
	tenants  *tenantTrace
	ballots  []l1hh.Ranking
}

// layerNames is the per-layer metric contract, in print order.
var layerNames = []struct{ name, unit string }{
	{"core.insert_ns_per_item", "ns"}, {"core.sampled_share", "ratio"}, {"core.report_us", "us"},
	{"hash.ns_per_item", "ns"}, {"sample.skip_ns_per_item", "ns"},
	{"engine.new_us", "us"}, {"engine.insert_ns_per_item", "ns"}, {"engine.facade_ns_per_item", "ns"}, {"engine.report_us", "us"},
	{"shard.insert_batch_ns_per_item", "ns"}, {"shard.barrier_ms", "ms"},
	{"hhd.enqueue_wait_share", "ratio"}, {"hhd.batch_apply_ns_per_item", "ns"},
	{"ckpt.encode_ms", "ms"}, {"ckpt.decode_ms", "ms"}, {"ckpt.bytes", "bytes"},
	{"pool.spills", "count"}, {"pool.revives", "count"}, {"pool.revives_per_request", "ratio"},
	{"hhd.pool_spill_ms_mean", "ms"}, {"hhd.pool_revive_ms_mean", "ms"}, {"pool.op_us", "us"},
	{"voting.vote_ns_per_ballot", "ns"}, {"voting.winner_us", "us"},
	{"hhd.ingest_decode_ns_per_item", "ns"}, {"hhd.report_stage_ms", "ms"}, {"hhd.http_tax_ns_per_item", "ns"},
	{"hhd.shed_responses", "count"}, {"hhd.cpu_ns_per_record", "ns"},
	{"hhclient.flush_ms_p50", "ms"}, {"hhclient.retried_items", "count"}, {"hhclient.dropped_items", "count"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.cpu_share", "ratio"},
	{"trace.overhead.ingest_records_per_s", "1/s"}, {"trace.overhead.ack_ms", "ms"},
	{"trace.overhead.report_ms", "ms"}, {"trace.overhead.cpu_ns_per_record", "ns"},
	{"accuracy.max_err_over_eps", "ratio"}, {"tail.ack_p99_ms", "ms"}, {"tail.report_p99_ms", "ms"},
}

const (
	ladderMaxItems = 1 << 21                // prefix of the workload's stream replayed per row
	ladderMinTime  = 300 * time.Millisecond // per row: repeat until this much was measured
	ladderPoolOps  = 6000                   // tenant-trace requests replayed through NewPool
	ladderVoteM    = 1 << 22                // declared ballots for the stand-in Borda engine
)

// repeat runs one rep at a time until ladderMinTime has passed (at least
// three reps) and returns the median of the reps' results.
func repeat(rep func() float64) float64 {
	var v []float64
	start := time.Now()
	for len(v) < 3 || time.Since(start) < ladderMinTime {
		v = append(v, rep())
	}
	return median(v)
}

// timeMedian times f n times and returns the median in unit.
func timeMedian(n int, unit time.Duration, f func()) float64 {
	v := make([]float64, n)
	for i := range v {
		st := time.Now()
		f()
		v[i] = float64(time.Since(st)) / float64(unit)
	}
	return median(v)
}

var sink uint64

// runLadder replays the traced pass's inputs through each module's
// entry point in isolation. Each row is one layer; the gap between two
// rows is one layer's cost. It returns every per-layer metric, merged
// with what the traced pass observed (daemon scrapes, client stats).
func runLadder(rc *runCtx) (*metrics, error) {
	in := rc.ladder
	if in.items == nil {
		in.items = l1hh.Generate(l1hh.NewZipfStream(rc.seed*1_000_003, libSupport, libZipf), libM)
		in.m, in.eps, in.phi, in.universe = libM, libEps, libPhi, libSupport
	}
	items := in.items
	if len(items) > ladderMaxItems {
		items = items[:ladderMaxItems]
	}
	n := float64(len(items))
	l := newMetrics()
	root := tr.begin("ladder", -1, -1)
	defer tr.end(root)
	row := func(name string) func() {
		sp := tr.begin("ladder."+name, root, -1)
		return func() { tr.end(sp) }
	}

	// internal/hash and internal/sample: the per-item primitives.
	tuning := core.DefaultTuning
	u := uint64(math.Ceil(tuning.A2BucketFactor / in.eps))
	p := math.Min(1, tuning.A2SampleConst/(in.eps*in.eps)/float64(in.m))
	done := row("hash")
	l.set("hash.ns_per_item", repeat(func() float64 {
		f := hash.NewFunc(rng.New(rc.seed), u)
		st := time.Now()
		for _, x := range items {
			sink += f.Hash(x)
		}
		return float64(time.Since(st).Nanoseconds()) / n
	}), "ns", len(items))
	done()
	done = row("sample")
	l.set("sample.skip_ns_per_item", repeat(func() float64 {
		s := sample.NewSkip(rng.New(rc.seed), p)
		st := time.Now()
		for range items {
			if s.Next() {
				sink++
			}
		}
		return float64(time.Since(st).Nanoseconds()) / n
	}), "ns", len(items))
	done()

	// internal/core (bare Algorithm 2) and the root l1hh serial engine
	// (New → facade → core) on the workload's stream. Their reps
	// alternate, so drift and warm-up do not land on one side of the
	// facade difference.
	done = row("core+engine")
	ccfg := core.Config{Eps: in.eps, Phi: in.phi, Delta: 0.05, M: in.m, N: in.universe}
	opts := []l1hh.Option{l1hh.WithEps(in.eps), l1hh.WithPhi(in.phi), l1hh.WithStreamLength(in.m),
		l1hh.WithUniverse(in.universe), l1hh.WithSeed(rc.seed)}
	var (
		co                    *core.Optimal
		eng                   l1hh.HeavyHitters
		coreV, engineV, diffV []float64
	)
	for start := time.Now(); len(coreV) < 3 || time.Since(start) < 2*ladderMinTime; {
		o, err := core.NewOptimal(rng.New(rc.seed), ccfg)
		if err != nil {
			return nil, err
		}
		st := time.Now()
		for _, x := range items {
			o.Insert(x)
		}
		coreV = append(coreV, float64(time.Since(st).Nanoseconds())/n)
		co = o

		h, err := l1hh.New(opts...)
		if err != nil {
			return nil, err
		}
		st = time.Now()
		for _, x := range items {
			_ = h.Insert(x)
		}
		engineV = append(engineV, float64(time.Since(st).Nanoseconds())/n)
		diffV = append(diffV, engineV[len(engineV)-1]-coreV[len(coreV)-1])
		eng = h
	}
	coreNs, engNs := median(coreV), median(engineV)
	l.set("core.insert_ns_per_item", coreNs, "ns", len(items))
	l.set("core.sampled_share", float64(co.SampleSize())/float64(co.Len()), "ratio", 1)
	l.set("core.report_us", timeMedian(50, time.Microsecond, func() { sink += uint64(len(co.Report())) }), "us", 50)
	l.set("engine.new_us", timeMedian(20, time.Microsecond, func() {
		h, err := l1hh.New(opts...)
		if err == nil {
			_ = h.Close()
		}
	}), "us", 20)
	l.set("engine.insert_ns_per_item", engNs, "ns", len(items))
	l.set("engine.facade_ns_per_item", median(diffV), "ns", len(diffV))
	l.set("engine.report_us", timeMedian(50, time.Microsecond, func() { sink += uint64(len(eng.Report())) }), "us", 50)
	done()

	// internal/ckpt plus the engine codec: checkpoint frame round trip.
	done = row("ckpt")
	var frame []byte
	l.set("ckpt.encode_ms", timeMedian(20, time.Millisecond, func() {
		b, err := eng.MarshalBinary()
		if err != nil {
			panic(err)
		}
		frame = ckpt.Encode(b)
	}), "ms", 20)
	l.set("ckpt.bytes", float64(len(frame)), "bytes", 1)
	var decErr error
	l.set("ckpt.decode_ms", timeMedian(20, time.Millisecond, func() {
		b, err := ckpt.Decode(frame)
		if err == nil {
			_, err = l1hh.Unmarshal(b)
		}
		if err != nil {
			decErr = err
		}
	}), "ms", 20)
	done()
	if decErr != nil {
		return nil, fmt.Errorf("ladder ckpt: %w", decErr)
	}

	// internal/shard: in-process sharded engine, batches of 4096.
	done = row("shard")
	shardOpts := append(append([]l1hh.Option(nil), opts...), l1hh.WithShards(2))
	var shErr error
	shardNs := repeat(func() float64 {
		h, err := l1hh.New(shardOpts...)
		if err != nil {
			panic(err)
		}
		defer h.Close()
		st := time.Now()
		for off := 0; off < len(items); off += ingBody {
			if err := h.InsertBatch(items[off:min(off+ingBody, len(items))]); err != nil {
				shErr = err
			}
		}
		h.(l1hh.Flusher).Flush()
		return float64(time.Since(st).Nanoseconds()) / n
	})
	l.set("shard.insert_batch_ns_per_item", shardNs, "ns", len(items))
	l.set("shard.barrier_ms", repeat(func() float64 {
		h, err := l1hh.New(shardOpts...)
		if err != nil {
			panic(err)
		}
		defer h.Close()
		for off := 0; off+ingBody <= len(items) && off < 64*ingBody; off += ingBody {
			_ = h.InsertBatch(items[off : off+ingBody])
		}
		st := time.Now()
		h.(l1hh.Flusher).Flush() // the queues are full: the barrier drains them
		return float64(time.Since(st)) / float64(time.Millisecond)
	}), "ms", 1)
	done()
	if shErr != nil {
		return nil, fmt.Errorf("ladder shard: %w", shErr)
	}

	// internal/pool through l1hh.NewPool, replaying a tenant trace.
	done = row("pool")
	tt := in.tenants
	if tt == nil {
		tt = newTenantTrace(rc.seed, ladderPoolOps)
	}
	opUs, err := poolReplay(rc.seed, tt)
	if err != nil {
		return nil, err
	}
	l.set("pool.op_us", opUs, "us", min(ladderPoolOps, len(tt.reqTenant)))
	done()

	// internal/voting through the Borda problem engine.
	done = row("voting")
	ballots, vm := in.ballots, in.m
	if ballots == nil {
		for _, b := range newBallotBodies(rc.seed) {
			ballots = append(ballots, b.ballots...)
		}
		vm = ladderVoteM
	}
	vopts := []l1hh.Option{l1hh.WithProblem(l1hh.BordaProblem), l1hh.WithCandidates(vCandidates),
		l1hh.WithEps(vEps), l1hh.WithPhi(vPhi), l1hh.WithStreamLength(vm), l1hh.WithSeed(rc.seed)}
	var voter l1hh.Voter
	var vErr error
	l.set("voting.vote_ns_per_ballot", repeat(func() float64 {
		h, err := l1hh.New(vopts...)
		if err != nil {
			panic(err)
		}
		v := h.(l1hh.Voter)
		st := time.Now()
		for _, b := range ballots {
			if err := v.Vote(b); err != nil {
				vErr = err
			}
		}
		voter = v
		return float64(time.Since(st).Nanoseconds()) / float64(len(ballots))
	}), "ns", len(ballots))
	l.set("voting.winner_us", timeMedian(200, time.Microsecond, func() {
		c, _ := voter.Winner()
		sink += uint64(c)
	}), "us", 200)
	done()
	if vErr != nil {
		return nil, fmt.Errorf("ladder voting: %w", vErr)
	}

	// What the traced pass observed: daemon stage histograms, client
	// and load-generator figures.
	for _, k := range rc.layer.order {
		m := rc.layer.m[k]
		l.set(k, m.Value, m.Unit, m.n)
	}
	if d, ok := rc.layer.m["hhd.cpu_ns_per_record"]; ok {
		l.set("hhd.http_tax_ns_per_item", d.Value-shardNs, "ns", 1)
	}
	return l, nil
}

// poolReplay drives up to ladderPoolOps requests of the tenant trace
// through an in-process pool with hhd-tenants' budget and returns the
// mean microseconds per request; every fourth request also reads the
// tenant's report.
func poolReplay(seed uint64, tt *tenantTrace) (float64, error) {
	probe, err := l1hh.New(tenantOptions()...)
	if err != nil {
		return 0, err
	}
	p, err := l1hh.NewPool(l1hh.WithTenantDefaults(append(tenantOptions(), l1hh.WithSeed(seed))...),
		l1hh.WithPoolBudget(tenResident*probe.ModelBits()), l1hh.WithPoolSpill(l1hh.NewMemSpillStore()))
	if err != nil {
		return 0, err
	}
	defer p.Close()
	ops := min(ladderPoolOps, len(tt.reqTenant))
	st := time.Now()
	for i := 0; i < ops; i++ {
		name := tt.names[tt.reqTenant[i]]
		if err := p.InsertBatch(name, tt.bodies[tt.reqBody[i]]); err != nil {
			return 0, fmt.Errorf("pool replay: %w", err)
		}
		if i%4 == 3 {
			if _, err := p.Report(name); err != nil {
				return 0, fmt.Errorf("pool replay: %w", err)
			}
		}
	}
	return float64(time.Since(st).Microseconds()) / float64(ops), nil
}
