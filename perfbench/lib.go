package main

import (
	"fmt"
	"runtime"
	"time"

	l1hh "repro"
)

// lib-dense parameters. The stream is shorter than Algorithm 2's sample
// size ℓ = 128/ε² ≈ 1.28M, so the sampler keeps every item and the
// table work in internal/core dominates. At m = 2^17 the per-epoch error
// stays well inside εm (m = 2^16 already brushes the bound about once in
// three hundred epochs; the gate would then fail runs by chance).
const (
	libEps     = 0.01
	libPhi     = 0.05
	libM       = 1 << 17
	libSupport = 1 << 16
	libZipf    = 1.1
	libBases   = 64   // generated streams; each epoch replays one as a fresh variant
	libChunk   = 4096 // items per InsertBatch: one "request"
	libReports = 10   // Report calls per epoch on the quiesced engine
)

// How lib-dense turns epochs into timings. Each epoch's timings are
// scaled to reference speed (see speedMeter) by the reference kernel run
// after it. The work itself also differs between streams: Report's cost
// follows the Misra–Gries table a stream leaves behind and spreads about
// 0.4 of its mean from stream to stream. So every epoch runs a stream of
// its own — one of libBases generated streams, rotated and relabelled —
// and a timing is its median over the run's hundreds of epochs. Over ten
// seeds report_ms then spread 0.076 of its median with 16 bases and
// 0.073 with 64: what is left is timing noise on ~15 µs calls, not the
// seed. A base is kept as 16-bit items, so 64 of them take 16 MiB.

// libVariant fills buf with base rotated by rot and relabelled by
// x ↦ x XOR mask (a bijection of [0, libSupport)): the same frequency
// profile in another order under other names.
func libVariant(buf []uint64, base []uint16, rot int, mask uint64) {
	n := copy16(buf, base[rot:], mask)
	copy16(buf[n:], base[:rot], mask)
}

func copy16(dst []uint64, src []uint16, mask uint64) int {
	for i, x := range src {
		dst[i] = uint64(x) ^ mask
	}
	return len(src)
}

// splitmix64 derives an epoch's rotation, relabelling and engine seed
// from the run's seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func runLibDense(rc *runCtx) error {
	bases := make([][]uint16, libBases)
	for i := range bases {
		g := l1hh.NewZipfStream(rc.seed*1_000_003+uint64(i), libSupport, libZipf)
		bases[i] = make([]uint16, libM)
		for j := range bases[i] {
			bases[i][j] = uint16(g.Next())
		}
	}
	stream := make([]uint64, libM)
	freq := make([]uint64, libSupport) // exact counts of the epoch's stream
	libVariant(stream, bases[0], 0, 0)
	rc.ladder = ladderInput{items: append([]uint64(nil), stream...), m: libM, eps: libEps, phi: libPhi, universe: libSupport}
	runtime.GC()

	var ackS, repS samples
	var setup, insert, cpu, ack, report, modelBits []float64
	var records int64
	rss := startRSSSampler()
	start := time.Now()
	deadline := start.Add(rc.budget())
	speed := newSpeedMeter()
	epochs := 0
	for ; epochs < 2*libBases || time.Now().Before(deadline); epochs++ {
		r := splitmix64(rc.seed<<20 + uint64(epochs))
		libVariant(stream, bases[epochs%libBases], int(r%libM), (r>>20)%libSupport)
		clear(freq)
		for _, x := range stream {
			freq[x]++
		}
		var heavy []uint64
		for x, f := range freq {
			if float64(f) >= libPhi*libM {
				heavy = append(heavy, uint64(x))
			}
		}
		req := int64(epochs)
		ep := tr.begin("lib.epoch", -1, req)

		t0 := time.Now()
		sp := tr.begin("engine.New", ep, req)
		h, err := l1hh.New(l1hh.WithEps(libEps), l1hh.WithPhi(libPhi), l1hh.WithStreamLength(libM),
			l1hh.WithUniverse(libSupport), l1hh.WithSeed(splitmix64(r)))
		tr.end(sp)
		newD := time.Since(t0)
		rc.attempted++
		if err != nil {
			return fmt.Errorf("l1hh.New: %w", err)
		}

		c0 := cpuTime()
		t1 := time.Now()
		acks := make([]float64, 0, libM/libChunk)
		for off := 0; off < libM; off += libChunk {
			ts := time.Now()
			sp := tr.begin("engine.InsertBatch", ep, req)
			err := h.InsertBatch(stream[off : off+libChunk])
			tr.end(sp)
			d := time.Since(ts)
			ackS.addDur(d, time.Millisecond)
			acks = append(acks, float64(d)/float64(time.Millisecond))
			rc.attempted++
			if err != nil {
				rc.failed++
			}
		}
		insD := time.Since(t1)
		cpuD := cpuTime() - c0
		records += libM

		var rep []l1hh.ItemEstimate
		reps := make([]float64, libReports)
		for i := range reps {
			ts := time.Now()
			sp := tr.begin("engine.Report", ep, req)
			rep = h.Report()
			tr.end(sp)
			d := time.Since(ts)
			repS.addDur(d, time.Millisecond)
			reps[i] = float64(d) / float64(time.Millisecond)
			rc.attempted++
		}
		sp = tr.begin("engine.MarshalBinary", ep, req)
		_, err = h.MarshalBinary()
		tr.end(sp)
		rc.attempted++
		if err != nil {
			rc.failed++
		}

		sp = tr.begin("check.exact", ep, req)
		err = rc.acc.scoreHH(fmt.Sprintf("epoch %d", epochs), rep, func(x uint64) uint64 { return freq[x] }, heavy, libM, libEps, libPhi)
		tr.end(sp)
		if err != nil {
			return errCorrectness{err}
		}
		modelBits = append(modelBits, float64(h.ModelBits()))
		_ = h.Close()
		tr.end(ep)

		k := speed.scale()
		setup = append(setup, k*newD.Seconds())
		insert = append(insert, k*insD.Seconds())
		cpu = append(cpu, k*float64(cpuD.Nanoseconds())/libM)
		ack = append(ack, k*median(acks))
		report = append(report, k*median(reps))
	}
	wall := time.Since(start)
	rssPeak := rss.finish()
	rc.phase("epochs", records, wall, fmt.Sprintf("%d epochs of m=%d", epochs, libM))
	speed.record(rc)

	e := rc.e2e
	e.set("setup_s", median(setup), "s", len(setup))
	e.set("ingest_records_per_s", libM/median(insert), "1/s", len(insert))
	rc.latency("ack", &ackS, median(ack))
	rc.latency("report", &repS, median(report))
	e.set("model_bits", median(modelBits), "bit", len(modelBits))
	e.set("rss_peak_mib", rssPeak, "MiB", 1)
	e.set("cpu_ns_per_record", median(cpu), "ns", len(cpu))
	return nil
}
