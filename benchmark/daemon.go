package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonFlags pins balignd's production defaults, so a change to a flag
// default shows up as a code change rather than a benchmark drift.
var daemonFlags = []string{"-workers", "0", "-parallel", "0", "-cache", "64", "-max-inflight", "8"}

// buildDaemon compiles ./cmd/balignd of the checkout at root into dir.
func buildDaemon(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "balignd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/balignd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building balignd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running balignd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startDaemon execs bin on a free loopback port and returns once
// /v1/readyz answers 200.
func startDaemon(bin string, clients int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, daemonFlags...)...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting balignd: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2},
		},
		done: make(chan struct{}),
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("balignd exited before it was ready: %v", d.err)
		default:
		}
		resp, err := d.http.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("balignd not ready within 30s")
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// sampleRSS polls the daemon's VmRSS from /proc/<pid>/status every
// interval until the returned function is called, which returns the
// samples in MB. Their median is far steadier from run to run than the
// peak (VmHWM), which depends on when garbage collection ran.
func (d *daemon) sampleRSS(every time.Duration) func() []float64 {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := procStatusMB(d.cmd.Process.Pid, "VmRSS:"); v > 0 {
				out = append(out, v)
			}
			select {
			case <-quit:
				done <- out
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// procStatusMB returns a kB field of /proc/<pid>/status in MB, or 0
// where the kernel does not report it.
func procStatusMB(pid int, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// counters is the part of the daemon's metrics plane the benchmark reads:
// /v1/stats for the engine counters and /metrics for the families
// /v1/stats does not carry.
type counters struct {
	Engine struct {
		Requests  int64 `json:"requests"`
		CacheHits int64 `json:"cache_hits"`
		Coalesced int64 `json:"coalesced"`
		Solved    int64 `json:"solved"`
	} `json:"engine"`
	evictions float64
	waitSum   float64 // seconds pool tasks spent queued for a token
	engineSum float64 // seconds the engine spent on requests
}

func (d *daemon) counters(ctx context.Context) (counters, error) {
	var c counters
	body, err := d.get(ctx, "/v1/stats")
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(body, &c); err != nil {
		return c, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	body, err = d.get(ctx, "/metrics")
	if err != nil {
		return c, err
	}
	fam := promValues(string(body))
	c.evictions = fam["engine_cache_evictions_total"]
	c.waitSum = fam["work_pool_queue_wait_seconds_sum"]
	c.engineSum = fam["engine_solve_duration_seconds_sum"]
	return c, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// promValues sums the samples of each series name in a Prometheus text
// exposition over all label sets.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
