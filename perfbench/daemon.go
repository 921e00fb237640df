package main

import (
	"bufio"
	"bytes"
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
	"sync"
	"time"
)

// buildDir is where run.sh leaves the binaries and where every run keeps
// its scratch files, relative to the checkout root the benchmark runs in.
const buildDir = ".bench_build"

// daemon is one rrrd process under test and the generator's HTTP client
// for it. The transport caps the connections the generator may open; a
// watch stream holds one of them for its whole life.
type daemon struct {
	cmd  *exec.Cmd
	base string
	tr   *http.Transport
	// api serves ordinary requests, with a deadline; stream serves the
	// long-lived watch subscription over the same transport.
	api, stream *http.Client
	done        chan struct{}
	waitErr     error
	log         *os.File
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// killAll stops every daemon still running; the signal handler's last act.
func killAll() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for d := range live {
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// startDaemon launches rrrd on a free loopback port with the given extra
// flags and waits until /v1/healthz answers. conns caps the generator's
// connections to it. The port is free when picked but could be taken
// before rrrd binds it, so a daemon that exits during start-up is retried
// on a fresh port.
func startDaemon(ctx context.Context, dir string, conns int, flags ...string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = launch(ctx, dir, conns, flags); !errors.Is(err, errExited) {
			return d, err
		}
	}
	return nil, err
}

var errExited = errors.New("rrrd exited during start-up")

func launch(ctx context.Context, dir string, conns int, flags []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("rrrd-%d.log", port)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(buildDir, "bin", "rrrd"), append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting rrrd: %w", err)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		tr:     tr,
		api:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		stream: &http.Client{Transport: tr},
		done:   make(chan struct{}),
		log:    logf,
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var health struct {
			Status string `json:"status"`
		}
		if _, err := d.getJSON(ctx, "/v1/healthz", &health); err == nil {
			return d, nil
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("%w (%v); log: %s", errExited, d.waitErr, d.tail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("rrrd did not answer /v1/healthz within 15s; log: %s", d.tail())
		}
	}
}

// freePort asks the kernel for an unused loopback port. rrrd cannot report
// the port it bound, so the port is picked here and handed to -addr.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// hwmMiB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop shuts the daemon down gracefully (SIGINT, as an operator would),
// killing it if it has not exited within 20s, and waits for it to end.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(os.Interrupt)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.tr.CloseIdleConnections()
	d.log.Close()
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// tail returns the end of the daemon's log for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// do sends one request and reads the whole body. A transport error or a
// non-2xx status is an error; the body is returned either way.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, hdr http.Header) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.api.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (d *daemon) getJSON(ctx context.Context, path string, v any) ([]byte, error) {
	body, err := d.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return body, err
	}
	return body, json.Unmarshal(body, v)
}

func (d *daemon) postJSON(ctx context.Context, path string, in, out any) ([]byte, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	body, err := d.do(ctx, http.MethodPost, path, payload, nil)
	if err != nil || out == nil {
		return body, err
	}
	return body, json.Unmarshal(body, out)
}

// register has the daemon generate and register one dataset.
func (d *daemon) register(ctx context.Context, name string, ds dataSpec) error {
	_, err := d.postJSON(ctx, "/v1/datasets", map[string]any{
		"name": name, "kind": ds.kind, "n": ds.n, "dims": ds.dims, "seed": ds.seed,
	}, nil)
	return err
}

// stats is the subset of GET /v1/stats the benchmark records.
type stats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Computations   int64 `json:"computations"`
	CoalescedJoins int64 `json:"coalesced_joins"`
	Delta          struct {
		Revalidated int64 `json:"revalidated"`
		Repaired    int64 `json:"repaired"`
		Recomputed  int64 `json:"recomputed"`
	} `json:"delta"`
	Persist struct {
		WALAppends int64 `json:"wal_appends"`
		WALBytes   int64 `json:"wal_bytes"`
	} `json:"persist"`
	Watch struct {
		Events  int64 `json:"events"`
		Dropped int64 `json:"dropped"`
	} `json:"watch"`
	Runtime struct {
		GCPauseSecondsTotal float64 `json:"gc_pause_seconds_total"`
	} `json:"runtime"`
	Phases map[string]struct {
		Count  int64   `json:"count"`
		MeanMS float64 `json:"mean_ms"`
	} `json:"latency_by_phase"`
}

func (d *daemon) stats(ctx context.Context) (stats, error) {
	var s stats
	_, err := d.getJSON(ctx, "/v1/stats", &s)
	return s, err
}

// counterDelta is what the daemon's counters did over one timed phase.
type counterDelta struct {
	hits, misses, computations, joins int64
	revalidated, repaired, recomputed int64
	walAppends, walBytes              int64
	watchEvents, watchDropped         int64
	gcPauseMS                         float64
	// phaseMeanMS is the mean duration of each solve phase
	// (rrrd_solve_phase_seconds) over the window, keyed by phase name.
	phaseMeanMS map[string]float64
}

func diffStats(a, b stats) counterDelta {
	c := counterDelta{
		hits:         b.CacheHits - a.CacheHits,
		misses:       b.CacheMisses - a.CacheMisses,
		computations: b.Computations - a.Computations,
		joins:        b.CoalescedJoins - a.CoalescedJoins,
		revalidated:  b.Delta.Revalidated - a.Delta.Revalidated,
		repaired:     b.Delta.Repaired - a.Delta.Repaired,
		recomputed:   b.Delta.Recomputed - a.Delta.Recomputed,
		walAppends:   b.Persist.WALAppends - a.Persist.WALAppends,
		walBytes:     b.Persist.WALBytes - a.Persist.WALBytes,
		watchEvents:  b.Watch.Events - a.Watch.Events,
		watchDropped: b.Watch.Dropped - a.Watch.Dropped,
		gcPauseMS:    (b.Runtime.GCPauseSecondsTotal - a.Runtime.GCPauseSecondsTotal) * 1e3,
		phaseMeanMS:  map[string]float64{},
	}
	for name, after := range b.Phases {
		before := a.Phases[name]
		if n := after.Count - before.Count; n > 0 {
			c.phaseMeanMS[name] = (after.MeanMS*float64(after.Count) - before.MeanMS*float64(before.Count)) / float64(n)
		}
	}
	return c
}
