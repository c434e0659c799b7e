package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonGOMAXPROCS pins the daemon's parallelism so a workload does not
// change with the machine it runs on.
const daemonGOMAXPROCS = 2

// daemon is one running hhd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	pid  int
	log  string
	done chan struct{}
}

// live holds every started daemon until it has been waited for, so that
// every exit path — return, panic, signal — can kill them.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// killAll kills and reaps every daemon still running.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with args plus a fresh -addr and returns once
// /readyz answers 200. The returned duration runs from exec to that
// first 200: the daemon's set-up time.
func startDaemon(bin, tmp string, args []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logPath := filepath.Join(tmp, fmt.Sprintf("hhd-%d.log", port))
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer lf.Close()
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "warn"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonGOMAXPROCS))
	// Own process group, so a signal to the benchmark's terminal does not
	// race the benchmark's own cleanup; and killed by the kernel should the
	// benchmark die without cleaning up (a panic on another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logPath, done: make(chan struct{})}
	live.Lock()
	start := time.Now()
	err = cmd.Start()
	if err == nil {
		live.m[d] = true
	}
	live.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	d.pid = cmd.Process.Pid
	go func() { _ = cmd.Wait(); close(d.done) }()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := start.Add(20 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			b, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("hhd exited during start-up: %s", bytes.TrimSpace(b))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("hhd not ready after 20s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	live.Lock()
	running := live.m[d]
	delete(live.m, d)
	live.Unlock()
	if !running {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// alive reports an error naming the daemon's log when it has died.
func (d *daemon) alive() error {
	select {
	case <-d.done:
		b, _ := os.ReadFile(d.log)
		return fmt.Errorf("hhd died: %s", bytes.TrimSpace(b))
	default:
		return nil
	}
}

// oneConn returns a client that keeps at most one connection to the
// daemon, so each load-generator stream is one connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// promSample is the daemon's Prometheus exposition, keyed by the full
// series name including labels, e.g. hhd_pool{field="revives_total"}.
type promSample map[string]float64

func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after−before for one series.
func (p promSample) delta(before promSample, key string) float64 { return p[key] - before[key] }

func stageSum(stage string) string { return `hhd_stage_duration_seconds_sum{stage="` + stage + `"}` }
func stageCount(stage string) string {
	return `hhd_stage_duration_seconds_count{stage="` + stage + `"}`
}
func poolField(field string) string { return `hhd_pool{field="` + field + `"}` }
