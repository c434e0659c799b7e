package main

import (
	"fmt"
	"math"

	l1hh "repro"
	"repro/internal/exact"
)

// accuracy accumulates the correctness gate's verdicts over every output
// a run scores.
type accuracy struct {
	outputs      int       // outputs scored
	trueHeavy    int       // items with f ≥ ϕm across outputs
	foundHeavy   int       // of those, reported
	reported     int       // reported items across outputs
	goodReported int       // of those, with f > (ϕ−ε)m
	errs         []float64 // per output: max |f̃−f| / (εm)
	winners      int       // voting: /winner answers scored
	rightWinners int       // of those, equal to the exact winner
}

// tally counts items exactly.
func tally(items []uint64) *exact.Counter {
	c := exact.New()
	for _, x := range items {
		c.Insert(x)
	}
	return c
}

// scoreHH checks one heavy-hitters report against exact counts under the
// (ε,ϕ) guarantee: every f ≥ ϕm item reported, nothing with f ≤ (ϕ−ε)m
// reported, every estimate within εm. Any violation is an error.
func (a *accuracy) scoreHH(what string, rep []l1hh.ItemEstimate, freq func(uint64) uint64, heavy []uint64, m uint64, eps, phi float64) error {
	a.outputs++
	fm := float64(m)
	got := make(map[uint64]bool, len(rep))
	worst := 0.0
	for _, r := range rep {
		got[r.Item] = true
		f := float64(freq(r.Item))
		a.reported++
		if f > (phi-eps)*fm {
			a.goodReported++
		} else {
			return fmt.Errorf("%s: reported item %d has f=%v ≤ (ϕ−ε)m=%v", what, r.Item, f, (phi-eps)*fm)
		}
		if e := math.Abs(r.F-f) / (eps * fm); e > worst {
			worst = e
		}
	}
	a.errs = append(a.errs, worst)
	if worst > 1 {
		return fmt.Errorf("%s: max |f̃−f|/(εm) = %.3f > 1", what, worst)
	}
	for _, x := range heavy {
		a.trueHeavy++
		if !got[x] {
			return fmt.Errorf("%s: missed heavy item %d with f=%d ≥ ϕm=%v", what, x, freq(x), phi*fm)
		}
		a.foundHeavy++
	}
	return nil
}

// heavySet lists the items of c with f ≥ ϕm.
func heavySet(c *exact.Counter, phi float64) []uint64 {
	return c.HeavyHitters(uint64(math.Ceil(phi * float64(c.Total()))))
}

func (a *accuracy) recall() float64 {
	if a.winners > 0 {
		return float64(a.rightWinners) / float64(a.winners)
	}
	if a.trueHeavy == 0 {
		return 1
	}
	return float64(a.foundHeavy) / float64(a.trueHeavy)
}

func (a *accuracy) precision() float64 {
	if a.reported == 0 {
		return 1
	}
	return float64(a.goodReported) / float64(a.reported)
}

// maxErr is the largest per-output error ratio of the run; the gate has
// already failed the run if it exceeds 1.
func (a *accuracy) maxErr() float64 {
	w := 0.0
	for _, e := range a.errs {
		w = math.Max(w, e)
	}
	return w
}
