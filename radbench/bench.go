package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/config"
)

// bench is one invocation: a workload, its generated inputs and the
// reference states its outputs must match.
type bench struct {
	o    options
	sp   spec
	work string

	deployment []byte
	depPath    string
	ins        []zoneInput
	// want is each zone's final state per the reference engine (live
	// workloads), or the pre-crash primary's state (restart-b).
	want map[string]snapshotView
	acc  accuracy
	t    tally
	// lost counts acked readings the restart-b crash discarded.
	lost uint64
	// probeUS is the reference engine's µs per reading.
	probeUS float64
	// inproc runs nodes inside this process (the traced run); tr
	// records spans while it is on.
	inproc bool
	tr     *tracer
}

// server is a running node: a radlocd child process or, in the traced
// run, an in-process node.
type server interface {
	pid() int
	alive() bool
	stop() error
	kill()
}

// launch starts a node for ns, logging under dir.
func (b *bench) launch(ns nodeSpec, dir, name string) (server, error) {
	if b.inproc {
		return b.startInproc(ns)
	}
	return startDaemon(b.o.radlocd, ns, dir, filepath.Join(dir, name+".log"))
}

// active is the tracer when it is recording, else nil.
func (b *bench) active() *tracer {
	if b.tr != nil && b.tr.on.Load() {
		return b.tr
	}
	return nil
}

// total is how many rounds per zone the inputs hold.
func (b *bench) total() int {
	if b.sp.prepRounds > 0 {
		return b.sp.prepRounds + b.sp.rounds
	}
	return warmRounds + b.sp.rounds
}

// prepare writes the deployment file, draws the inputs and runs the
// reference engines. None of it is timed.
func (b *bench) prepare() error {
	var err error
	if b.deployment, err = config.SaveScenario(b.sp.sc); err != nil {
		return err
	}
	b.depPath = filepath.Join(b.work, "deployment.json")
	if err := os.WriteFile(b.depPath, b.deployment, 0o644); err != nil {
		return err
	}
	upto := b.total()
	if b.sp.prepRounds > 0 {
		upto = b.sp.prepRounds
	}
	score := max(upto, b.sp.scoreRounds)
	b.ins = genInputs(b.sp, b.o.seed, max(b.total(), score))
	b.want = map[string]snapshotView{}
	var sc scorer
	t0 := time.Now()
	for _, in := range b.ins {
		want, err := reference(b.sp.sc, b.o.seed, in, upto, score, &sc)
		if err != nil {
			return err
		}
		b.want[in.zone] = want
	}
	// The reference is fixed single-threaded work, so its speed probes
	// the host's CPU speed during this run.
	b.probeUS = float64(time.Since(t0).Microseconds()) / float64(score*len(b.ins)*len(b.sp.sc.Sensors))
	b.acc = sc.result()
	return nil
}

// episode is what one daemon lifetime measured.
type episode struct {
	setup float64 // s
	// records counts readings written by the timed phase: acked
	// readings, plus (restart-b) the records the standby replicated.
	records int
	retries uint64
	rps     float64 // readings (restart-b: standby records) per second
	cpuPerR float64 // ms of daemon CPU per reading
	rssMB   float64
	s       *samples
}

// clients are the load generator's two HTTP clients: one connection
// for writes, one for reads, so the generator never holds more
// connections than this two-CPU class of host has CPUs. The returned
// func closes their idle connections.
func clients() (*http.Transport, *http.Client, func()) {
	w, r := connTransport(1), connTransport(1)
	return w, &http.Client{Transport: r, Timeout: 60 * time.Second}, func() {
		w.CloseIdleConnections()
		r.CloseIdleConnections()
	}
}

// untraced runs episodes until --seconds have passed, at least
// minEpisodes ran, and the pooled samples support the reported
// percentiles (or a hard cap on wall time is hit).
func (b *bench) untraced() (report, error) {
	var eps []episode
	var prep *prepared
	if b.sp.prepRounds > 0 {
		var err error
		if prep, err = b.prepareRestart(); err != nil {
			return report{}, err
		}
		b.lost = prep.pendingLost
	}
	start := time.Now()
	budget := time.Duration(b.o.seconds) * time.Second
	hardCap := 3*budget + 30*time.Second
	for {
		var ep episode
		var err error
		if prep != nil {
			ep, err = b.restartEpisode(prep, len(eps))
		} else {
			ep, err = b.liveEpisode(len(eps))
		}
		if err != nil {
			return report{}, err
		}
		eps = append(eps, ep)
		el := time.Since(start)
		acks, reads := pooled(eps)
		if el > hardCap {
			break
		}
		if len(eps) >= b.sp.minEpisodes && el >= budget && len(acks) >= 1000 && len(reads) >= 200 {
			break
		}
	}
	return b.summarize(eps), nil
}

// pooled gathers every episode's ack and read latencies.
func pooled(eps []episode) (acks, reads []float64) {
	for _, e := range eps {
		acks = append(acks, e.s.acks...)
		reads = append(reads, e.s.reads...)
	}
	return acks, reads
}

// summarize folds episodes into the end-to-end metrics. Rates, set-up,
// CPU, memory and the medians of latency and age are medians over
// episodes, so a host disturbance that hits a minority of a run's
// episodes does not move them. The ack p99 comes from the acks pooled
// over all episodes, because no single episode holds 1000 of them. The
// read p95 is reported as a note only: it spread beyond any bound the
// benchmark may set (see README.md).
func (b *bench) summarize(eps []episode) report {
	var rps, setup, cpu, rss, late, ages, ackP50, readP50, readP95, ageP50 []float64
	minReads := -1
	for _, e := range eps {
		rps = append(rps, e.rps)
		setup = append(setup, e.setup)
		cpu = append(cpu, e.cpuPerR)
		rss = append(rss, e.rssMB)
		ackP50 = append(ackP50, percentile(e.s.acks, 50))
		readP50 = append(readP50, percentile(e.s.reads, 50))
		readP95 = append(readP95, percentile(e.s.reads, 95))
		if minReads < 0 || len(e.s.reads) < minReads {
			minReads = len(e.s.reads)
		}
		ageP50 = append(ageP50, percentile(e.s.ages, 50))
		late = append(late, e.s.late...)
		ages = append(ages, e.s.ages...)
		b.t.ops(e.s.batchOK, e.s.batchFail)
		b.t.ops(e.s.readOK, e.s.readFail)
		b.t.failures = append(b.t.failures, e.s.errs...)
	}
	acks, reads := pooled(eps)
	rep := report{
		Episodes: len(eps),
		Samples:  map[string]int{"acks": len(acks), "reads": len(reads), "ages": len(ages)},
		Metrics: map[string]metric{
			"readings_per_s":      {median(rps), "1/s"},
			"ack_p50_ms":          {median(ackP50), "ms"},
			"ack_p99_ms":          {percentile(acks, 99), "ms"},
			"read_p50_ms":         {median(readP50), "ms"},
			"estimate_age_p50_ms": {median(ageP50), "ms"},
			"setup_s":             {median(setup), "s"},
			"cpu_ms_per_reading":  {median(cpu), "ms"},
			"peak_rss_mb":         {median(rss), "MiB"},
			"loc_err":             {b.acc.LocErr, "units"},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("read p95 %.3f ms (median over episodes; not a gated metric)", median(readP95)))
	for name, n := range map[string]int{"ack": len(acks), "read (fewest in one episode)": minReads} {
		p, ok := highestPercentile(n)
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s samples %d: highest percentile with >=%d beyond is p%g (ok=%v)", name, n, minBeyond, p, ok))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("estimate age ms p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f",
		percentile(ages, 10), percentile(ages, 25), percentile(ages, 50), percentile(ages, 75), percentile(ages, 90)))
	rep.Notes = append(rep.Notes, fmt.Sprintf("generator lateness p99 %.3f ms over %d sends", percentile(late, 99), len(late)))
	for _, in := range b.ins {
		if q := b.want[in.zone].Quarantined; q > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("zone %q: the health monitor quarantines %d sensor(s) on these clean inputs; daemon and reference agree", in.zone, q))
		}
	}
	if b.lost > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("the crashed primary had acked %d readings still held in the reorder gate; none were journaled, and none survive the restart", b.lost))
	}
	if b.sp.rate > 0 && b.sp.prepRounds == 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("offered %.0f readings/s, acked %.1f readings/s", b.sp.rate, median(rps)))
	}
	return rep
}

// episodeDir makes a fresh directory for one episode's files.
func (b *bench) episodeDir(i int) (string, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("ep%d", i))
	return dir, os.MkdirAll(dir, 0o755)
}

// liveEpisode launches one radlocd, warms it, drives the timed rounds,
// checks every zone's final state against the reference and stops it.
func (b *bench) liveEpisode(i int) (episode, error) {
	dir, err := b.episodeDir(i)
	if err != nil {
		return episode{}, err
	}
	defer os.RemoveAll(dir)
	port, err := freePort()
	if err != nil {
		return episode{}, err
	}
	ns := nodeSpec{deployment: b.depPath, seed: b.o.seed, port: port}
	if b.sp.wal {
		ns.walDir, ns.fsync, ns.ckptEvery = filepath.Join(dir, "wal"), b.sp.fsync, b.sp.ckptEvery
	}
	write, read, closeIdle := clients()
	defer closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	t0 := time.Now()
	d, err := b.launch(ns, dir, "radlocd")
	if err != nil {
		return episode{}, err
	}
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()
	if err := waitFor(read, ns.url()+"/healthz", 2*time.Millisecond, 30*time.Second, d.alive); err != nil {
		return episode{}, withLog(err, dir)
	}
	l := &liveRun{sp: b.sp, base: ns.url(), ins: b.ins, from: warmRounds, to: b.total(),
		anchor: map[string]anchor{}, write: write, read: read, seed: b.o.seed, tr: b.active()}
	if err := l.warm(ctx); err != nil {
		return episode{}, withLog(err, dir)
	}
	for _, in := range b.ins {
		l.anchor[in.zone] = anchor{ref: 1, round: 0} // refresh 1 covers round 0
	}
	ep := episode{setup: since(t0)}

	pid := d.pid()
	cpu0, err := cpuTime(pid)
	if err != nil {
		return episode{}, err
	}
	s, err := l.run(ctx)
	if err != nil {
		return episode{}, withLog(err, dir)
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return episode{}, err
	}
	ep.s = s
	// Warm-up readings were journaled in this episode too.
	ep.records = s.readings + warmRounds*len(b.ins)*len(b.sp.sc.Sensors)
	ep.retries = l.retries()
	if s.readings > 0 {
		ep.rps = float64(s.readings) / s.lastAck.Seconds()
		ep.cpuPerR = ms(cpu1-cpu0) / float64(s.readings)
	}
	for _, in := range b.ins {
		got, err := getSnapshot(ctx, read, snapshotURL(ns.url(), in.zone))
		if err == nil {
			err = sameState(got, b.want[in.zone])
		}
		b.t.check(fmt.Sprintf("episode %d zone %q final state equals reference", i, in.zone), err)
	}
	b.t.check(fmt.Sprintf("episode %d delivery accounting", i), l.deliveryErrors())
	if ep.rssMB, err = peakRSSMB(pid); err != nil {
		return episode{}, err
	}
	b.t.check(fmt.Sprintf("episode %d graceful shutdown", i), d.stop())
	return ep, nil
}

// withLog appends the tail of an episode's daemon logs to err.
func withLog(err error, dir string) error {
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	var sb strings.Builder
	for _, p := range logs {
		raw, _ := os.ReadFile(p)
		if len(raw) > 2000 {
			raw = raw[len(raw)-2000:]
		}
		fmt.Fprintf(&sb, "\n--- %s\n%s", filepath.Base(p), raw)
	}
	return fmt.Errorf("%w%s", err, sb.String())
}

// prepared is restart-b's crashed primary: its WAL directory (a
// checkpoint plus a WAL suffix) and the ports its cluster uses.
type prepared struct {
	dir              string
	primary, standby nodeSpec
	pendingLost      uint64 // acked readings still in the reorder gate at the crash
}

// routesFor is the two-node table: primary writes, standby replicates.
func routesFor(primary, standby int) *cluster.Routes {
	return &cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: fmt.Sprintf("http://127.0.0.1:%d", primary), Standby: fmt.Sprintf("http://127.0.0.1:%d", standby)},
	}}
}

// prepareRestart runs a replicated primary through prepRounds rounds
// with no standby up, then kills it with SIGKILL, leaving a checkpoint
// plus a WAL suffix. Built once per invocation and never timed.
func (b *bench) prepareRestart() (*prepared, error) {
	pp, err := freePort()
	if err != nil {
		return nil, err
	}
	spPort, err := freePort()
	if err != nil {
		return nil, err
	}
	routes := routesFor(pp, spPort)
	p := &prepared{dir: filepath.Join(b.work, "prepared")}
	p.primary = nodeSpec{deployment: b.depPath, seed: b.o.seed, port: pp, walDir: p.dir,
		fsync: b.sp.fsync, ckptEvery: b.sp.ckptEvery, routes: routes}
	p.standby = nodeSpec{deployment: b.depPath, seed: b.o.seed, port: spPort,
		fsync: b.sp.fsync, ckptEvery: b.sp.ckptEvery, routes: routes}

	d, err := startDaemon(b.o.radlocd, p.primary, b.work, filepath.Join(b.work, "prepare.log"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()
	write, read, closeIdle := clients()
	defer closeIdle()
	if err := waitFor(read, p.primary.url()+"/healthz", 2*time.Millisecond, 30*time.Second, d.alive); err != nil {
		return nil, withLog(err, b.work)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	l := &liveRun{sp: b.sp, base: p.primary.url(), ins: b.ins, from: b.sp.prepRounds,
		write: write, read: read, seed: b.o.seed}
	if err := l.warm(ctx); err != nil {
		return nil, withLog(err, b.work)
	}
	body, err := httpGet(ctx, read, snapshotURL(p.primary.url(), ""))
	if err != nil {
		return nil, err
	}
	var held struct {
		Delivery struct {
			Pending uint64 `json:"pending"`
		} `json:"delivery"`
	}
	if err := json.Unmarshal(body, &held); err != nil {
		return nil, err
	}
	p.pendingLost = held.Delivery.Pending
	d.kill()
	return p, nil
}

// copyDir copies the regular files of a flat-or-nested directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, info.Mode())
	})
}

// clusterApplied reads a standby's applied WAL head for the default
// zone from /cluster/status.
func clusterApplied(ctx context.Context, c *http.Client, base string) (uint64, error) {
	body, err := httpGet(ctx, c, base+"/cluster/status")
	if err != nil {
		return 0, err
	}
	var st struct {
		Zones []cluster.ZoneStatus `json:"zones"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	for _, z := range st.Zones {
		if z.Zone == "default" {
			return z.Applied, nil
		}
	}
	return 0, nil
}

// normalized renders a /snapshot body for replica comparison in the
// form the repository's own replication tests use: the sequence gate's
// delivery counters are dropped (a standby applies journaled records
// and never buffers or holds readings); everything else must match
// byte for byte.
func normalized(body []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "delivery")
	return json.Marshal(m)
}

// restartEpisode restarts the crashed primary from a copy of its
// directory (timed as set-up) and checks the recovered state. It then
// starts an empty standby and times its catch-up with ingest idle, and
// after that has one agent deliver the live tail to the primary while
// the standby follows. Ends when the standby has applied everything
// and matches the primary.
func (b *bench) restartEpisode(p *prepared, i int) (episode, error) {
	dir, err := b.episodeDir(i)
	if err != nil {
		return episode{}, err
	}
	defer os.RemoveAll(dir)
	pri, sby := p.primary, p.standby
	pri.walDir, sby.walDir = filepath.Join(dir, "primary"), filepath.Join(dir, "standby")
	if err := copyDir(p.dir, pri.walDir); err != nil {
		return episode{}, err
	}
	write, read, closeIdle := clients()
	defer closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	t0 := time.Now()
	pd, err := b.launch(pri, dir, "primary")
	if err != nil {
		return episode{}, err
	}
	defer func() {
		if pd.alive() {
			pd.kill()
		}
	}()
	if err := waitFor(read, pri.url()+"/readyz", 2*time.Millisecond, 60*time.Second, pd.alive); err != nil {
		return episode{}, withLog(err, dir)
	}
	ep := episode{setup: since(t0)}
	rec, err := getSnapshot(ctx, read, snapshotURL(pri.url(), ""))
	if err == nil {
		err = sameState(rec, b.want[""])
	}
	b.t.check(fmt.Sprintf("episode %d recovered primary equals pre-crash reference", i), err)
	target := rec.Journaled

	cpuP0, err := cpuTime(pd.pid())
	if err != nil {
		return episode{}, err
	}
	t1 := time.Now()
	sd, err := b.launch(sby, dir, "standby")
	if err != nil {
		return episode{}, err
	}
	defer func() {
		if sd.alive() {
			sd.kill()
		}
	}()
	// Catch-up runs with HTTP ingest idle: the first instant the standby
	// has applied every record the recovered primary held ends it.
	var dt time.Duration
	for {
		n, err := clusterApplied(ctx, read, sby.url())
		if err == nil && n >= target {
			dt = time.Since(t1)
			break
		}
		if ctx.Err() != nil || !sd.alive() {
			return episode{}, withLog(fmt.Errorf("standby never caught up to offset %d (last error %v)", target, err), dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ep.rps = float64(target) / dt.Seconds()

	// Then the live tail, with the standby following it.
	l := &liveRun{sp: b.sp, base: pri.url(), ins: b.ins, from: b.sp.prepRounds, to: b.total(),
		// The rounds held in the gate at the crash are gone, so the first
		// refresh after recovery covers the first live round.
		anchor: map[string]anchor{"": {ref: rec.Refreshes + 1, round: b.sp.prepRounds}}, write: write, read: read, seed: b.o.seed, tr: b.active()}
	s, err := l.run(ctx)
	if err != nil {
		return episode{}, withLog(err, dir)
	}
	ep.s = s
	ep.retries = l.retries()

	// Drain: wait for the standby to apply the live tail too, then the
	// two snapshots must agree byte for byte.
	final, err := getSnapshot(ctx, read, snapshotURL(pri.url(), ""))
	if err != nil {
		return episode{}, err
	}
	for {
		n, err := clusterApplied(ctx, read, sby.url())
		if err != nil {
			return episode{}, err
		}
		if n >= final.Journaled {
			break
		}
		if ctx.Err() != nil {
			return episode{}, withLog(fmt.Errorf("standby stuck at %d of %d", n, final.Journaled), dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cpuP1, err := cpuTime(pd.pid())
	if err != nil {
		return episode{}, err
	}
	cpuS, err := cpuTime(sd.pid())
	if err != nil {
		return episode{}, err
	}
	ep.records = s.readings + int(final.Journaled)
	ep.cpuPerR = ms(cpuP1-cpuP0+cpuS) / float64(final.Journaled)
	a, err1 := httpGet(ctx, read, snapshotURL(pri.url(), ""))
	c, err2 := httpGet(ctx, read, snapshotURL(sby.url(), ""))
	err = firstErr(err1, err2)
	if err == nil {
		var na, nc []byte
		if na, err = normalized(a); err == nil {
			if nc, err = normalized(c); err == nil && !bytes.Equal(na, nc) {
				err = fmt.Errorf("standby snapshot differs from primary:\nprimary %s\nstandby %s", na, nc)
			}
		}
	}
	b.t.check(fmt.Sprintf("episode %d caught-up standby byte-identical to primary", i), err)
	b.t.check(fmt.Sprintf("episode %d delivery accounting", i), l.deliveryErrors())
	rp, err1 := peakRSSMB(pd.pid())
	rs, err2 := peakRSSMB(sd.pid())
	if err := firstErr(err1, err2); err != nil {
		return episode{}, err
	}
	ep.rssMB = max(rp, rs)
	b.t.check(fmt.Sprintf("episode %d standby shutdown", i), sd.stop())
	b.t.check(fmt.Sprintf("episode %d primary shutdown", i), pd.stop())
	return ep, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
