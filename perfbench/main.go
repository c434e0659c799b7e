// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one workload through the public surfaces — the
// l1hh library, pkg/hhclient and a real cmd/hhd daemon over loopback —
// checks every output against an exact tally, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload twice on the same seed, untraced and traced, then
// replays the workload's inputs through each module's entry point in
// isolation (the layer ladder), and prints the per-layer metrics and
// the tracing overhead. --steady N reruns a workload on N seeds and
// prints each end-to-end metric's median and interquartile spread.
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// generatorProcs caps the load generator at two threads.
const generatorProcs = 2

// e2eNames is the end-to-end metric contract, in print order.
var e2eNames = []string{
	"setup_s", "ingest_records_per_s",
	"ack_ms", "report_ms",
	"accepted_share", "recall", "precision",
	"model_bits", "rss_peak_mib", "cpu_ns_per_record",
}

var workloads = map[string]func(*runCtx) error{
	"lib-dense":   runLibDense,
	"hhd-ingest":  runHHDIngest,
	"hhd-tenants": runHHDTenants,
	"hhd-vote":    runHHDVote,
}

// errCorrectness marks a failed correctness check: the run exits
// non-zero and prints no numbers.
type errCorrectness struct{ error }

// runCtx is one pass of one workload.
type runCtx struct {
	seed    uint64
	seconds float64 // measuring budget of this pass
	tracing bool
	hhd     string // prebuilt daemon binary
	tmp     string // per-run scratch directory, removed at exit

	e2e       *metrics
	layer     *metrics // layer figures the pass itself observes (scrapes, client stats)
	acc       accuracy
	attempted int64
	failed    int64
	ladder    ladderInput
	phases    []string
}

func (rc *runCtx) budget() time.Duration { return time.Duration(rc.seconds * float64(time.Second)) }

// phase records one phase's record count and rate for the environment
// record.
func (rc *runCtx) phase(name string, records int64, d time.Duration, note string) {
	rc.phases = append(rc.phases, fmt.Sprintf("phase %-14s records=%-10d seconds=%-8.3f rate=%.0f/s  %s",
		name, records, d.Seconds(), float64(records)/d.Seconds(), note))
}

// latency records a latency series: typical, drawn from s, is the
// end-to-end <name>_ms (the median for the daemon workloads; a scaled
// median over epochs for lib-dense, see runLibDense). The series' p99 swings with the machine's
// load from run to run by more than any bound allows, so it is kept
// unbounded, as the per-layer tail.<name>_p99_ms, and printed in every
// run with the number of samples beyond it (a warning names any below
// ten).
func (rc *runCtx) latency(name string, s *samples, typical float64) {
	rc.e2e.set(name+"_ms", typical, "ms", s.n())
	rc.layer.set("tail."+name+"_p99_ms", s.quantile(0.99), "ms", s.n())
	k := s.beyond(0.99)
	rc.phases = append(rc.phases, fmt.Sprintf("tail  %-14s p99=%.4gms n=%d samples beyond p99: %d", name, s.quantile(0.99), s.n(), k))
	if k < 10 {
		fmt.Fprintf(os.Stderr, "warning: %s p99 rests on %d samples beyond it (<10)\n", name, k)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: lib-dense, hhd-ingest, hhd-tenants or hhd-vote")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measuring time of one run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
		hhd      = flag.String("hhd", filepath.Join(".bench_build", "hhd"), "prebuilt hhd binary")
		work     = flag.String("workdir", ".bench_build", "directory for scratch files and the trace file")
		steady   = flag.Int("steady", 0, "rerun the workload on this many seeds and print medians and spreads")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(steadiness(*workload, *seed, *seconds, *trace, *steady))
	}
	runtime.GOMAXPROCS(generatorProcs)
	os.Exit(runOne(run, *workload, *seed, *seconds, *trace == 1, *hhd, *work))
}

func runOne(run func(*runCtx) error, workload string, seed uint64, seconds float64, traced bool, hhd, work string) (code int) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(tmp)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		s := <-sig
		cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			cleanup()
			panic(p)
		}
		cleanup()
	}()
	if strings.HasPrefix(workload, "hhd-") {
		// The generator is not the system under test: collect its garbage
		// rarely, so its own GC pauses stay out of the daemon's latencies.
		debug.SetGCPercent(400)
		if _, err := os.Stat(hhd); err != nil {
			fmt.Fprintf(os.Stderr, "hhd binary: %v\n", err)
			return 1
		}
	}
	printEnv(workload, seed, seconds, traced)

	newCtx := func(secs float64, tracing bool) *runCtx {
		return &runCtx{seed: seed, seconds: secs, tracing: tracing,
			hhd: hhd, tmp: tmp, e2e: newMetrics(), layer: newMetrics()}
	}
	fail := func(err error) int {
		var ce errCorrectness
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "CORRECTNESS FAILURE (%s, seed %d): %v\n", workload, seed, ce.error)
			return 3
		}
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", workload, err)
		return 1
	}

	if !traced {
		rc := newCtx(seconds, false)
		if err := run(rc); err != nil {
			return fail(err)
		}
		finishE2E(rc)
		if err := checkE2E(rc.e2e); err != nil {
			return fail(err)
		}
		printPass(rc, "end-to-end metrics")
		return emit(rc.attempted, rc.failed, rc.e2e)
	}

	// Traced run: untraced and traced passes on the same seed, then the
	// layer ladder over the same generated inputs.
	untraced := newCtx(seconds*0.5, false)
	if err := run(untraced); err != nil {
		return fail(err)
	}
	finishE2E(untraced)
	printPass(untraced, "untraced pass")
	traced1 := newCtx(seconds*0.5, true)
	tr.enable()
	if err := run(traced1); err != nil {
		return fail(err)
	}
	finishE2E(traced1)
	printPass(traced1, "traced pass")
	layer, err := runLadder(traced1)
	if err != nil {
		return fail(err)
	}
	for _, k := range []string{"ingest_records_per_s", "ack_ms", "report_ms", "cpu_ns_per_record"} {
		u := untraced.e2e.m[k]
		layer.set("trace.overhead."+k, traced1.e2e.m[k].Value-u.Value, u.Unit, 1)
	}
	layer.set("accuracy.max_err_over_eps", traced1.acc.maxErr(), "ratio", len(traced1.acc.errs))
	// Emit exactly the per-layer contract; a layer this workload does
	// not reach reads 0 with no samples.
	out := newMetrics()
	for _, ln := range layerNames {
		m, ok := layer.m[ln.name]
		if !ok {
			m = metric{Unit: ln.unit}
		}
		out.set(ln.name, m.Value, ln.unit, m.n)
	}
	tpath := filepath.Join(work, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	if err := tr.write(tpath); err != nil {
		return fail(fmt.Errorf("write trace: %w", err))
	}
	fmt.Printf("trace file: %s\n", tpath)
	tr.printSummary()
	out.print("per-layer metrics")
	return emit(untraced.attempted+traced1.attempted, untraced.failed+traced1.failed, out)
}

// finishE2E adds the accuracy and failure metrics every workload shares.
func finishE2E(rc *runCtx) {
	e := rc.e2e
	acc := 1.0
	if rc.attempted > 0 {
		acc = 1 - float64(rc.failed)/float64(rc.attempted)
	}
	e.set("accepted_share", acc, "ratio", int(rc.attempted))
	e.set("recall", rc.acc.recall(), "ratio", rc.acc.outputs)
	e.set("precision", rc.acc.precision(), "ratio", rc.acc.outputs)
}

func checkE2E(ms *metrics) error {
	for _, k := range e2eNames {
		if _, ok := ms.m[k]; !ok {
			return fmt.Errorf("metric %s missing", k)
		}
	}
	if len(ms.m) != len(e2eNames) {
		return fmt.Errorf("metric set %v differs from the contract", ms.order)
	}
	return nil
}

func printPass(rc *runCtx, title string) {
	for _, p := range rc.phases {
		fmt.Println(p)
	}
	fmt.Printf("accuracy: outputs=%d max_err_over_eps=%.4f recall=%.4f precision=%.4f (gate: all passed)\n",
		rc.acc.outputs, rc.acc.maxErr(), rc.acc.recall(), rc.acc.precision())
	fmt.Printf("requests: attempted=%d failed=%d\n", rc.attempted, rc.failed)
	ms := newMetrics()
	for _, k := range e2eNames {
		if m, ok := rc.e2e.m[k]; ok {
			ms.set(k, m.Value, m.Unit, m.n)
		}
	}
	ms.print(title)
}

// emit prints the result object as the last line of standard output.
func emit(attempted, failed int64, ms *metrics) int {
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, ms.m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// printEnv records where and how the numbers were taken.
func printEnv(workload string, seed uint64, seconds float64, traced bool) {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpuModel = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%g traced=%v go=%s generator_gomaxprocs=%d daemon_gomaxprocs=%d nproc=%d cpu=%q git=%s\n",
		workload, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), daemonGOMAXPROCS, runtime.NumCPU(), cpuModel, gitRevision())
}

// gitRevision reads the checked-out commit from .git in the working
// directory, without running git, so nothing outside the checkout is
// read.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}

// steadiness reruns the workload on n seeds in child processes and
// prints, per metric, the median and the interquartile spread as a
// share of the median — the figures BENCHMARK.json's bounds rest on.
func steadiness(workload string, seed uint64, seconds float64, trace, n int) int {
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		args := []string{"--workload", workload, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
		for _, a := range []string{"hhd", "workdir"} {
			args = append(args, "--"+a, flag.Lookup(a).Value.String())
		}
		out, err := exec.Command(os.Args[0], args...).Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: parse result: %v\n", s, err)
			return 1
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", s)
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("== steadiness: %s, %d seeds from %d, %gs each\n", workload, n, seed, seconds)
	fmt.Printf("  %-36s %14s %10s  %-6s %s\n", "metric", "median", "iqr/med", "unit", "per seed")
	for _, k := range keys {
		q1, med, q3 := quartiles(vals[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		per := make([]string, len(vals[k]))
		for i, v := range vals[k] {
			per[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Printf("  %-36s %14.6g %10.4f  %-6s %s\n", k, med, spread, units[k], strings.Join(per, " "))
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(v, n=4) (exclusive
// method), which is how the spreads are judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := float64(len(c))
	at := func(p float64) float64 {
		if len(c) == 1 {
			return c[0]
		}
		m := p * (n + 1)
		j := int(m)
		if j < 1 {
			j = 1
		} else if j > len(c)-1 {
			j = len(c) - 1
		}
		return c[j-1] + (m-float64(j))*(c[j]-c[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
