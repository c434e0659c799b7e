package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	l1hh "repro"
)

// hhd-vote parameters: Borda over vCandidates candidates, ballots from
// a Mallows model around a seeded centre, so the exact winner is clear
// and every correct /winner answer names it.
const (
	vCandidates = 12
	vEps        = 0.02
	vPhi        = 0.6 // List threshold in units of m·n: the top few candidates
	vMallowsQ   = 0.5
	vBatch      = 256 // ballots per request
	vBodies     = 512
	// Ballot rates that fix the record counts, as in hhd-ingest.
	vCapRate    = 210_000
	vOpenRate   = 80_000
	vReadPeriod = 6 * time.Millisecond
	vRounds     = 8
)

// ballotBody is one NDJSON request body and its exact tally.
type ballotBody struct {
	ballots []l1hh.Ranking
	ndjson  []byte
	borda   []uint64
}

// hhdWinner is the GET /winner body.
type hhdWinner struct {
	Candidate int       `json:"candidate"`
	Ballots   uint64    `json:"ballots"`
	Scores    []float64 `json:"scores"`
	List      []struct {
		Candidate int     `json:"candidate"`
		Score     float64 `json:"score"`
	} `json:"list"`
}

func newBallotBodies(seed uint64) []ballotBody {
	r := rand.New(rand.NewSource(int64(seed)))
	center := make(l1hh.Ranking, vCandidates)
	for i, c := range r.Perm(vCandidates) {
		center[i] = uint32(c)
	}
	gen := l1hh.NewMallows(seed*31+1, center, vMallowsQ)
	out := make([]ballotBody, vBodies)
	for b := range out {
		var buf bytes.Buffer
		t := l1hh.NewVoteTally(vCandidates)
		for i := 0; i < vBatch; i++ {
			rk := gen.Next().Clone()
			t.Add(rk)
			out[b].ballots = append(out[b].ballots, rk)
			buf.WriteByte('[')
			for j, c := range rk {
				if j > 0 {
					buf.WriteByte(',')
				}
				buf.WriteString(strconv.Itoa(int(c)))
			}
			buf.WriteString("]\n")
		}
		out[b].ndjson = buf.Bytes()
		out[b].borda = t.BordaScores()
	}
	return out
}

func runHHDVote(rc *runCtx) error {
	bodies := newBallotBodies(rc.seed)
	capReqs := int(vCapRate*0.5*rc.seconds/vBatch) / vRounds * vRounds
	openReqs := int(vOpenRate * 0.5 * rc.seconds / vBatch)
	openDur := time.Duration(0.5 * rc.seconds * float64(time.Second))
	reads := int(openDur / vReadPeriod)
	m := uint64((capReqs + openReqs) * vBatch)
	var ballots []l1hh.Ranking
	for _, b := range bodies {
		ballots = append(ballots, b.ballots...)
	}
	rc.ladder = ladderInput{m: m, ballots: ballots}

	d, setup, err := bootDaemon(rc, []string{"-problem", "borda", "-candidates", strconv.Itoa(vCandidates),
		"-m", strconv.FormatUint(m, 10), "-eps", fmt.Sprint(vEps), "-phi", fmt.Sprint(vPhi),
		"-seed", strconv.FormatUint(rc.seed, 10)})
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

	exactScores := make([]uint64, vCandidates)
	var total uint64
	send := func(i int, parent int32) error {
		b := &bodies[i%vBodies]
		sp := tr.begin("http.post /vote", parent, int64(i))
		acc, err := post(ingestConn, d.base+"/vote", "application/x-ndjson", b.ndjson)
		tr.end(sp)
		if acc >= vBatch {
			for c, s := range b.borda {
				exactScores[c] += s
			}
			total += vBatch
		} else if acc > 0 {
			t := l1hh.NewVoteTally(vCandidates)
			for _, rk := range b.ballots[:acc] {
				t.Add(rk)
			}
			for c, s := range t.BordaScores() {
				exactScores[c] += s
			}
			total += acc
		}
		if err == nil && acc != vBatch {
			err = fmt.Errorf("partial accept %d of %d", acc, vBatch)
		}
		return err
	}

	phaseSpan := tr.begin("phase.capacity", -1, -1)
	var rates []float64
	per := capReqs / vRounds
	capStart := time.Now()
	for r := 0; r < vRounds; r++ {
		st := time.Now()
		for i := r * per; i < (r+1)*per; i++ {
			rc.attempted++
			if err := send(i, phaseSpan); err != nil {
				rc.failed++
			}
		}
		rates = append(rates, float64(per*vBatch)/time.Since(st).Seconds())
	}
	tr.end(phaseSpan)
	rc.phase("capacity", int64(capReqs*vBatch), time.Since(capStart), fmt.Sprintf("closed loop, %d-ballot NDJSON requests, 1 connection", vBatch))

	phaseSpan = tr.begin("phase.open", -1, -1)
	writer := &loop{name: "vote", interval: vBatch * time.Second / vOpenRate, n: openReqs}
	writer.do = func(i int) error { return send(capReqs+i, phaseSpan) }
	var answers []int
	reader := &loop{name: "winner", interval: vReadPeriod, n: reads}
	reader.do = func(i int) error {
		sp := tr.begin("http.get /winner", phaseSpan, int64(i))
		defer tr.end(sp)
		var w hhdWinner
		if err := getJSON(readConn, d.base+"/winner", &w); err != nil {
			return err
		}
		answers = append(answers, w.Candidate)
		return nil
	}
	openWall := runLoops(writer, reader)
	tr.end(phaseSpan)
	rc.phase("open", int64(openReqs*vBatch), openWall,
		fmt.Sprintf("open loop %d POST/s of %d ballots + GET /winner every %v", vOpenRate/vBatch, vBatch, vReadPeriod))
	openLoopMetrics(rc, writer, reader)
	if err := pm.finish(rc, readConn, int64(m)); err != nil {
		return err
	}
	after, err := scrape(readConn, d.base)
	if err != nil {
		return err
	}
	rc.e2e.set("model_bits", after["hhd_model_bits"], "bit", 1)
	rc.e2e.set("ingest_records_per_s", median(rates), "1/s", len(rates))
	if err := d.alive(); err != nil {
		return err
	}

	var w hhdWinner
	if err := getJSON(readConn, d.base+"/winner", &w); err != nil {
		return fmt.Errorf("final /winner: %w", err)
	}
	return scoreBorda(rc, w, answers, exactScores, total)
}

// scoreBorda gates the final /winner against the exact Borda tally:
// every score within ε·m·n, the (ε,ϕ)-List complete and clean, and it
// scores each /winner answer of the run against the exact winner.
func scoreBorda(rc *runCtx, w hhdWinner, answers []int, exactScores []uint64, m uint64) error {
	a := &rc.acc
	a.outputs++
	if w.Ballots != m {
		return errCorrectness{fmt.Errorf("daemon counted %d ballots, %d acknowledged", w.Ballots, m)}
	}
	mn := float64(m) * vCandidates
	best := 0
	worst := 0.0
	for c, s := range exactScores {
		if s > exactScores[best] {
			best = c
		}
		worst = math.Max(worst, math.Abs(w.Scores[c]-float64(s))/(vEps*mn))
	}
	a.errs = append(a.errs, worst)
	if worst > 1 {
		return errCorrectness{fmt.Errorf("max Borda score error / (εmn) = %.3f > 1", worst)}
	}
	listed := map[int]bool{}
	for _, l := range w.List {
		listed[l.Candidate] = true
		a.reported++
		if float64(exactScores[l.Candidate]) <= (vPhi-vEps)*mn {
			return errCorrectness{fmt.Errorf("listed candidate %d has score %d ≤ (ϕ−ε)mn", l.Candidate, exactScores[l.Candidate])}
		}
		a.goodReported++
	}
	for c, s := range exactScores {
		if float64(s) >= vPhi*mn {
			a.trueHeavy++
			if !listed[c] {
				return errCorrectness{fmt.Errorf("candidate %d with score %d ≥ ϕmn missing from the list", c, s)}
			}
			a.foundHeavy++
		}
	}
	for _, c := range append(answers, w.Candidate) {
		a.winners++
		if c == best {
			a.rightWinners++
		}
	}
	if float64(exactScores[best]-exactScores[w.Candidate]) > vEps*mn {
		return errCorrectness{fmt.Errorf("final winner %d trails the exact Borda winner %d by more than εmn", w.Candidate, best)}
	}
	return nil
}
