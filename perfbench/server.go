package main

import (
	"bufio"
	"bytes"
	"context"
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

	"dpslog/internal/ledger"
)

// server is one running slserve process with a private data directory.
type server struct {
	cmd     *exec.Cmd
	dataDir string
	base    string // API listener, http://127.0.0.1:port
	ops     string // ops listener (readyz, metrics)
	exited  chan struct{}
	waitErr error
}

// serverFlags are the slserve flags every workload runs with, besides the
// per-run ports, data directory and budget.
var serverFlags = []string{"-quiet", "-workers", "2", "-solve-parallelism", "1"}

// startServer launches slserve on two free loopback ports and returns once
// the process is running (not yet ready; see waitReady).
func startServer(bin, dataDir string, budget ledger.Budget) (*server, error) {
	apiPort, err := freePort()
	if err != nil {
		return nil, err
	}
	opsPort, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:" + apiPort,
		"-ops-addr", "127.0.0.1:" + opsPort,
		"-data-dir", dataDir,
		"-budget-epsilon", strconv.FormatFloat(budget.Epsilon, 'g', -1, 64),
		"-budget-delta", strconv.FormatFloat(budget.Delta, 'g', -1, 64),
	}, serverFlags...)
	cmd := exec.Command(bin, args...)
	// slserve logs its listen addresses on stderr; keep them off the
	// benchmark's stdout, whose last line is the result.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start slserve: %w", err)
	}
	s := &server{
		cmd:     cmd,
		dataDir: dataDir,
		base:    "http://127.0.0.1:" + apiPort,
		ops:     "http://127.0.0.1:" + opsPort,
		exited:  make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

// waitReady polls the ops listener's /readyz until the corpus store is
// open and the ledger journal replayed.
func (s *server) waitReady(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("slserve exited before ready: %v", s.waitErr)
		default:
		}
		resp, err := client.Get(s.ops + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("slserve not ready in time")
}

// peakRSSMB reads the server process's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("read slserve VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// stop sends SIGTERM, waits for the graceful drain, kills the process if
// it overstays, and removes the data directory.
func (s *server) stop() error {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	return os.RemoveAll(s.dataDir)
}

// scrape is one reading of the server counters the benchmark tracks.
type scrape struct {
	planHits, planMisses, compHits, iterations float64
	queueWaitSum, queueWaitCount               float64
}

// scrapeMetrics reads the ops listener's Prometheus exposition.
func (s *server) scrapeMetrics(ctx context.Context, client *http.Client) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ops+"/metrics", nil)
	if err != nil {
		return scrape{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	var sc scrape
	fields := map[string]*float64{
		"slserve_plan_cache_hits_total":                            &sc.planHits,
		"slserve_plan_cache_misses_total":                          &sc.planMisses,
		"slserve_component_cache_hits_total":                       &sc.compHits,
		"slserve_solver_iterations_total":                          &sc.iterations,
		`slserve_stage_duration_seconds_sum{stage="queue.wait"}`:   &sc.queueWaitSum,
		`slserve_stage_duration_seconds_count{stage="queue.wait"}`: &sc.queueWaitCount,
	}
	for _, line := range bytes.Split(body, []byte("\n")) {
		name, val, ok := strings.Cut(string(line), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if dst, ok := fields[name]; ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return scrape{}, fmt.Errorf("scrape /metrics: %s: %w", name, err)
			}
			*dst = v
		}
	}
	return sc, nil
}

// delta is after minus before, field by field.
func (a scrape) delta(b scrape) scrape {
	return scrape{
		planHits:       a.planHits - b.planHits,
		planMisses:     a.planMisses - b.planMisses,
		compHits:       a.compHits - b.compHits,
		iterations:     a.iterations - b.iterations,
		queueWaitSum:   a.queueWaitSum - b.queueWaitSum,
		queueWaitCount: a.queueWaitCount - b.queueWaitCount,
	}
}
