package main

import (
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
	"syscall"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/config"
	"radloc/internal/fusion"
	"radloc/internal/node"
	"radloc/internal/wal"
)

// nodeSpec is one daemon's configuration, rendered either as radlocd
// flags (untraced runs) or as a node.Config (the traced run).
type nodeSpec struct {
	deployment string // scenario JSON path
	seed       uint64
	port       int
	walDir     string
	fsync      string
	ckptEvery  int
	// routes, when non-nil, puts the node in cluster mode with this
	// table; self is then its own base URL.
	routes *cluster.Routes
}

func (n nodeSpec) url() string { return fmt.Sprintf("http://127.0.0.1:%d", n.port) }

// args renders the spec as radlocd flags. Background maintenance that
// could fire mid-run (scrubbing, storage probes) is pinned off so it
// never lands inside one run and not another.
func (n nodeSpec) args(routesFile string) []string {
	a := []string{
		"-config", n.deployment,
		"-listen", fmt.Sprintf("127.0.0.1:%d", n.port),
		"-seed", strconv.FormatUint(n.seed, 10),
		"-scrub-interval", "0",
		"-storage-probe", "0",
		"-max-zones", "16",
	}
	if n.walDir != "" {
		a = append(a, "-wal-dir", n.walDir, "-fsync", n.fsync,
			"-checkpoint-every", strconv.Itoa(n.ckptEvery))
	}
	if n.routes != nil {
		a = append(a, "-cluster-self", n.url(), "-cluster-routes", routesFile,
			"-repl-interval", "5ms")
	}
	return a
}

// config renders the spec as the node.Config radlocd would build from
// args (the traced run mounts it in-process).
func (n nodeSpec) config(data []byte) (node.Config, error) {
	sc, err := config.LoadScenario(data)
	if err != nil {
		return node.Config{}, err
	}
	cfg := node.Config{
		Scenario: sc, Seed: n.seed,
		MaxZones: 16, CheckpointEvery: 1000,
		WALDir: n.walDir, Fsync: wal.FsyncNever,
	}
	if n.walDir != "" {
		if cfg.Fsync, err = wal.ParseFsyncPolicy(n.fsync); err != nil {
			return node.Config{}, err
		}
		cfg.CheckpointEvery = n.ckptEvery
	}
	if n.routes != nil {
		cfg.ClusterSelf = n.url()
		cfg.SeedRoutes = n.routes
		cfg.ReplInterval = 5 * time.Millisecond
	}
	return cfg, nil
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

// daemon is one radlocd child process.
type daemon struct {
	spec nodeSpec
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// startDaemon launches radlocd for spec, logging to logPath.
func startDaemon(bin string, spec nodeSpec, dir, logPath string) (*daemon, error) {
	routesFile := ""
	if spec.routes != nil {
		blob, err := json.Marshal(spec.routes)
		if err != nil {
			return nil, err
		}
		routesFile = filepath.Join(dir, fmt.Sprintf("routes-%d.json", spec.port))
		if err := os.WriteFile(routesFile, blob, 0o644); err != nil {
			return nil, err
		}
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, spec.args(routesFile)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	d := &daemon{spec: spec, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		lf.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down gracefully and waits for it,
// killing it if it has not exited within the grace period.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("radlocd: no exit within 20s of SIGTERM")
	}
}

// kill ends the daemon abruptly, as a crash would, and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// cpuTime reads the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// httpGet fetches url with c and returns the body of a 200 response.
func httpGet(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// waitFor polls url every interval until it answers 200, failing
// after timeout or as soon as alive reports the server gone.
func waitFor(c *http.Client, url string, interval, timeout time.Duration, alive func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := httpGet(ctx, c, url)
		cancel()
		if err == nil {
			return nil
		}
		if alive != nil && !alive() {
			return fmt.Errorf("server exited while waiting for %s: %v", url, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: %v", url, err)
		}
		time.Sleep(interval)
	}
}

// snapshotURL is a zone's /snapshot route ("" = the default zone).
func snapshotURL(base, zone string) string {
	if zone == "" {
		return base + "/snapshot"
	}
	return base + "/zones/" + zone + "/snapshot"
}

// snapshotView is the part of the /snapshot wire form the benchmark
// checks: counters, estimates and confirmed tracks.
type snapshotView struct {
	Ingested    uint64 `json:"ingested"`
	Rejected    uint64 `json:"rejected"`
	Refreshes   uint64 `json:"refreshes"`
	Quarantined int    `json:"quarantined"`
	Journaled   uint64 `json:"journaled"`
	Estimates   []struct {
		X           float64 `json:"x"`
		Y           float64 `json:"y"`
		StrengthUCi float64 `json:"strengthUCi"`
		Mass        float64 `json:"mass"`
	} `json:"estimates"`
	Tracks []struct {
		ID          int     `json:"id"`
		X           float64 `json:"x"`
		Y           float64 `json:"y"`
		StrengthUCi float64 `json:"strengthUCi"`
		Hits        int     `json:"hits"`
	} `json:"tracks"`
}

// viewOf renders an in-process engine snapshot in the wire view, so a
// reference engine and a daemon's /snapshot compare field by field.
func viewOf(s fusion.Snapshot) snapshotView {
	v := snapshotView{Ingested: s.Ingested, Rejected: s.Rejected, Refreshes: s.Refreshes,
		Quarantined: s.Quarantined, Journaled: s.Journaled}
	for _, e := range s.Estimates {
		v.Estimates = append(v.Estimates, struct {
			X           float64 `json:"x"`
			Y           float64 `json:"y"`
			StrengthUCi float64 `json:"strengthUCi"`
			Mass        float64 `json:"mass"`
		}{e.Pos.X, e.Pos.Y, e.Strength, e.Mass})
	}
	for _, t := range s.Tracks {
		v.Tracks = append(v.Tracks, struct {
			ID          int     `json:"id"`
			X           float64 `json:"x"`
			Y           float64 `json:"y"`
			StrengthUCi float64 `json:"strengthUCi"`
			Hits        int     `json:"hits"`
		}{t.ID, t.Pos.X, t.Pos.Y, t.Strength, t.Hits})
	}
	return v
}

// sameState compares what a reference run fixes: counters, estimates,
// tracks and the health monitor's quarantine count. No reading may be
// rejected. The journal offset is left out (a reference engine has no
// journal).
func sameState(got, want snapshotView) error {
	if got.Rejected != 0 {
		return fmt.Errorf("%d readings rejected (want none)", got.Rejected)
	}
	got.Journaled, want.Journaled = 0, 0
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("state differs from the reference engine:\n got %s\nwant %s", a, b)
	}
	return nil
}
