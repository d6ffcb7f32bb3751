package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radloc/internal/core"
	"radloc/internal/fusion"
	"radloc/internal/node"
	"radloc/internal/obs"
	"radloc/internal/sensor"
	"radloc/internal/transport"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one batch share
// Batch; Parent links a span to the one that caused it (0 = root).
type span struct {
	ID, Parent, Batch uint64
	Name              string
	Start, End        time.Duration // offsets from the tracer's epoch
	Status            int           // HTTP status, where there is one
	Bytes             int           // bytes moved, where counted
	N                 int           // items handled (records per pull, modes per estimate)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while on; they are summarized when the
// run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() uint64 { return t.ids.Add(1) }

func (t *tracer) at(x time.Time) time.Duration { return x.Sub(t.epoch) }

// add records sp if the tracer is on, assigning an ID when it has none.
func (t *tracer) add(sp span) uint64 {
	if !t.on.Load() {
		return 0
	}
	if sp.ID == 0 {
		sp.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// traceCtx carries a batch's identity from the load generator to the
// RoundTripper that stamps it on the request.
type traceCtx struct{ batch, parent uint64 }

type traceKey struct{}

const (
	hdrBatch  = "X-Radbench-Batch"
	hdrParent = "X-Radbench-Parent"
)

// stamp is a RoundTripper that copies the context's batch and parent
// span IDs into request headers, so the server-side span middleware
// can link its span to the client's.
type stamp struct{ next http.RoundTripper }

func (s stamp) RoundTrip(req *http.Request) (*http.Response, error) {
	if tc, ok := req.Context().Value(traceKey{}).(traceCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrBatch, strconv.FormatUint(tc.batch, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(tc.parent, 10))
	}
	return s.next.RoundTrip(req)
}

// send is liveRun's traced delivery: a loadgen.batch span from the
// batch's due instant to its ack, with a transport.send child around
// transport.Client.Send.
func (t *tracer) send(ctx context.Context, c *transport.Client, b batch, due time.Time) error {
	root, child := t.id(), t.id()
	t0 := time.Now()
	err := c.Send(context.WithValue(ctx, traceKey{}, traceCtx{batch: b.id, parent: child}), b.rs)
	t1 := time.Now()
	t.add(span{ID: child, Parent: root, Batch: b.id, Name: "transport.send", Start: t.at(t0), End: t.at(t1), N: len(b.rs)})
	t.add(span{ID: root, Batch: b.id, Name: "loadgen.batch", Start: t.at(due), End: t.at(t1), N: len(b.rs)})
	return err
}

// read is liveRun's traced /snapshot read.
func (t *tracer) read(ctx context.Context, c *http.Client, url string) (snapshotView, error) {
	id := t.id()
	t0 := time.Now()
	sc := &http.Client{Transport: stamp{c.Transport}, Timeout: c.Timeout}
	v, err := getSnapshot(context.WithValue(ctx, traceKey{}, traceCtx{parent: id}), sc, url)
	t.add(span{ID: id, Name: "loadgen.read", Start: t.at(t0), End: t.at(time.Now())})
	return v, err
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware wraps a node's handler in a span per request, named by
// the layer the route enters.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		batch, _ := strconv.ParseUint(r.Header.Get(hdrBatch), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		t.add(span{Parent: parent, Batch: batch, Name: routeLayer(r), Start: t.at(t0), End: t.at(time.Now()), Status: sw.status})
	})
}

// routeLayer names the layer a request enters.
func routeLayer(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/measurements"):
		return "httpingest.request"
	case strings.HasSuffix(p, "/snapshot"):
		return "fusion.snapshot"
	case strings.HasPrefix(p, "/cluster/wal/"):
		return "cluster.serve"
	default:
		return "http.other"
	}
}

// timingFS is the node's Config.FS in the traced run: the real
// filesystem with every file Write and Sync timed.
type timingFS struct {
	vfs.FS
	t *tracer
}

func (f timingFS) OpenFile(path string, flag int, perm fs.FileMode) (vfs.File, error) {
	fh, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{fh, f.t}, nil
}

func (f timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	fh, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timingFile{fh, f.t}, nil
}

type timingFile struct {
	vfs.File
	t *tracer
}

func (f timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.t.add(span{Name: "vfs.write", Start: f.t.at(t0), End: f.t.at(time.Now()), Bytes: n})
	return n, err
}

func (f timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.t.add(span{Name: "vfs.sync", Start: f.t.at(t0), End: f.t.at(time.Now())})
	return err
}

// pullRT is the node's Config.HTTP in the traced run: it times each
// replication pull from request to the last byte of its body and
// counts the record frames it carried.
type pullRT struct {
	next http.RoundTripper
	t    *tracer
}

func (p pullRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/cluster/wal/") {
		return p.next.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := p.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	recs := bytes.Count(body, []byte(`"rec":`))
	p.t.add(span{Name: "cluster.pull", Start: p.t.at(t0), End: p.t.at(time.Now()), Status: resp.StatusCode, Bytes: len(body), N: recs})
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// inproc is a node mounted in this process behind the span middleware.
type inproc struct {
	n    *node.Node
	srv  *http.Server
	done chan struct{}
	once sync.Once
	err  error
}

func (b *bench) startInproc(ns nodeSpec) (*inproc, error) {
	cfg, err := ns.config(b.deployment)
	if err != nil {
		return nil, err
	}
	cfg.Metrics = obs.NewRegistry()
	var h func(http.Handler) http.Handler = func(h http.Handler) http.Handler { return h }
	if b.tr.on.Load() {
		// The untraced episode runs without the wrappers, so the overhead
		// figure covers everything tracing adds.
		cfg.FS = timingFS{FS: vfs.OS{}, t: b.tr}
		cfg.HTTP = pullRT{next: http.DefaultTransport, t: b.tr}
		h = b.tr.middleware
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", ns.port))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	n, err := node.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	b.tr.add(span{Name: "node.new", Start: b.tr.at(t0), End: b.tr.at(time.Now())})
	n.Start(context.Background())
	ip := &inproc{n: n, srv: &http.Server{Handler: h(n.Handler())}, done: make(chan struct{})}
	go func() {
		_ = ip.srv.Serve(ln)
		close(ip.done)
	}()
	return ip, nil
}

func (p *inproc) pid() int { return os.Getpid() }

func (p *inproc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

func (p *inproc) stop() error {
	p.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		p.err = p.srv.Shutdown(ctx)
		<-p.done
		if err := p.n.Shutdown(); p.err == nil {
			p.err = err
		}
	})
	return p.err
}

func (p *inproc) kill() { _ = p.stop() }

// traced is the --trace 1 run: one process, the same inputs. An
// untraced in-process episode and a traced one give the tracing
// overhead; the traced episode, a direct write-pipeline pass and a
// standalone replay of the layers give the per-layer metrics.
func (b *bench) traced() (report, error) {
	b.inproc = true
	b.tr = newTracer()
	var prep *prepared
	if b.sp.prepRounds > 0 {
		var err error
		if prep, err = b.prepareRestart(); err != nil {
			return report{}, err
		}
		b.lost = prep.pendingLost
	}
	episodeOf := func(i int) (episode, error) {
		if prep != nil {
			return b.restartEpisode(prep, i)
		}
		return b.liveEpisode(i)
	}
	plain, err := episodeOf(0)
	if err != nil {
		return report{}, err
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	b.tr.on.Store(true)
	traced, err := episodeOf(1)
	if err != nil {
		return report{}, err
	}
	runtime.ReadMemStats(&gc1)
	if err := b.pipelinePass(prep); err != nil {
		return report{}, err
	}
	lr, err := b.layerReplay()
	if err != nil {
		return report{}, err
	}
	b.tr.on.Store(false)
	for _, e := range []episode{plain, traced} {
		b.t.ops(e.s.batchOK, e.s.batchFail)
		b.t.ops(e.s.readOK, e.s.readFail)
		b.t.failures = append(b.t.failures, e.s.errs...)
	}

	t := b.tr
	durMS := func(name string) []float64 {
		var out []float64
		for _, s := range t.named(name) {
			out = append(out, ms(s.dur()))
		}
		return out
	}
	durUS := func(name string) []float64 {
		var out []float64
		for _, s := range t.named(name) {
			out = append(out, ms(s.dur())*1000)
		}
		return out
	}
	shed := 0
	for _, s := range t.named("httpingest.request") {
		switch s.Status {
		case 413, 429, 503, 507:
			shed++
		}
	}
	syncs, writes := t.named("vfs.sync"), t.named("vfs.write")
	wbytes := 0
	for _, s := range writes {
		wbytes += s.Bytes
	}
	pulls := t.named("cluster.pull")
	pullRecs := 0
	for _, s := range pulls {
		pullRecs += s.N
	}
	recs := float64(max(traced.records, 1))
	m := map[string]metric{
		"loadgen.late_p99_ms":         {percentile(traced.s.late, 99), "ms"},
		"transport.retries":           {float64(traced.retries), "count"},
		"httpingest.shed":             {float64(shed), "count"},
		"httpingest.request_ms_p50":   {percentile(durMS("httpingest.request"), 50), "ms"},
		"zone.submit_ms_p50":          {percentile(durMS("zone.submit"), 50), "ms"},
		"zone.submit_ms_p99":          {percentile(durMS("zone.submit"), 99), "ms"},
		"fusion.release_readings":     {float64(lr.released), "count"},
		"fusion.refreshes":            {float64(lr.refreshes), "count"},
		"fusion.snapshot_ms_p50":      {percentile(durMS("fusion.snapshot"), 50), "ms"},
		"core.ingest_us_p50":          {percentile(durUS("core.ingest"), 50), "us"},
		"core.select_ms":              {lr.stageMS["select"], "ms"},
		"core.predict_ms":             {lr.stageMS["predict"], "ms"},
		"core.weight_ms":              {lr.stageMS["weight"], "ms"},
		"core.resample_ms":            {lr.stageMS["resample"], "ms"},
		"meanshift.estimate_ms_p50":   {percentile(durMS("meanshift.estimate"), 50), "ms"},
		"meanshift.modes":             {lr.modes, "count"},
		"wal.append_us_p50":           {percentile(durUS("wal.append"), 50), "us"},
		"wal.fsyncs_per_reading":      {float64(len(syncs)) / recs, "count"},
		"wal.checkpoint_ms_p50":       {percentile(durMS("wal.checkpoint"), 50), "ms"},
		"wal.replay_records_per_s":    {lr.replayRate, "1/s"},
		"vfs.sync_us_p50":             {percentile(durUS("vfs.sync"), 50), "us"},
		"vfs.sync_us_p99":             {percentile(durUS("vfs.sync"), 99), "us"},
		"vfs.write_bytes_per_reading": {float64(wbytes) / recs, "B"},
		"node.new_ms":                 {percentile(durMS("node.new"), 100), "ms"},
		"cluster.pulls":               {float64(len(pulls)), "count"},
		"cluster.records_per_pull":    {float64(pullRecs) / float64(max(len(pulls), 1)), "count"},
		"cluster.pull_ms_p50":         {percentile(durMS("cluster.pull"), 50), "ms"},
		"go.gc_cycles_per_kreading":   {float64(gc1.NumGC-gc0.NumGC) * 1000 / recs, "count"},
		"trace.overhead_pct":          {100 * (plain.rps - traced.rps) / plain.rps, "%"},
		"eval.false_pos":              {float64(b.acc.FalsePos), "count"},
		"eval.false_neg":              {float64(b.acc.FalseNeg), "count"},
	}
	rep := report{Episodes: 2, Metrics: m, Samples: map[string]int{"spans": len(t.spans)}}
	rep.Notes = append(rep.Notes, selfTimes(t.spans)...)
	rep.Notes = append(rep.Notes, fmt.Sprintf("readings_per_s untraced %.1f, traced %.1f", plain.rps, traced.rps))
	if err := writeSpans(filepath.Join(b.o.root, ".bench_build", "spans-"+b.sp.name+".json"), t.spans); err != nil {
		return report{}, err
	}
	return rep, nil
}

// selfTimes summarizes spans by name: count, median duration and total
// self time, a span's duration minus the part its children cover.
func selfTimes(spans []span) []string {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	type agg struct {
		durs []float64
		self float64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, ms(s.dur()))
		a.self += ms(s.dur() - covered(s, kids[s.ID]))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("span %-20s n=%-6d p50=%.3fms self_total=%.1fms", n, len(a.durs), percentile(a.durs, 50), a.self))
	}
	return out
}

// covered is how much of parent's interval its children cover, each
// instant counted once.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans saves the run's spans for offline inspection.
func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// pipelinePass feeds the same batches straight into an in-process
// node's write pipeline, one at a time, each in a zone.submit span:
// mailbox, sequence gate, journal and apply without HTTP in front.
// restart-b submits its live tail to a node recovered from the crashed
// primary's directory.
func (b *bench) pipelinePass(prep *prepared) error {
	dir := filepath.Join(b.work, "pipeline")
	ns := nodeSpec{deployment: b.depPath, seed: b.o.seed}
	from := 0
	if b.sp.wal {
		ns.walDir, ns.fsync, ns.ckptEvery = filepath.Join(dir, "wal"), b.sp.fsync, b.sp.ckptEvery
	}
	if prep != nil {
		if err := copyDir(prep.dir, ns.walDir); err != nil {
			return err
		}
		from = b.sp.prepRounds
	}
	cfg, err := ns.config(b.deployment)
	if err != nil {
		return err
	}
	cfg.Metrics = obs.NewRegistry()
	n, err := node.New(cfg)
	if err != nil {
		return err
	}
	defer n.Shutdown()
	l := &liveRun{sp: b.sp, ins: b.ins}
	ctx := context.Background()
	for _, bt := range l.split(from, b.total(), 1)[0] {
		name := bt.zone
		if name == "" {
			name = "default"
		}
		t0 := time.Now()
		res, err := n.Pipeline().Submit(ctx, name, toMeas(bt.rs))
		b.tr.add(span{Batch: bt.id, Name: "zone.submit", Start: b.tr.at(t0), End: b.tr.at(time.Now()), N: len(bt.rs)})
		b.t.ops(1, 0)
		if err == nil && (res.Rejected != 0 || res.Duplicate != 0) {
			err = fmt.Errorf("%d rejected, %d duplicate", res.Rejected, res.Duplicate)
		}
		if err != nil {
			b.t.check(fmt.Sprintf("pipeline pass zone %q round %d", bt.zone, bt.round), err)
			return nil
		}
	}
	return nil
}

// replayStats are the layer replay's counts and rates.
type replayStats struct {
	released, refreshes uint64
	stageMS             map[string]float64 // mean ms per sensor round
	modes               float64            // mean modes per estimate
	replayRate          float64            // WAL records/s through Engine.Replay
}

// spanJournal is the replay engine's fusion.Journal: wal.Log.Append in
// a wal.append span.
type spanJournal struct {
	log *wal.Log
	t   *tracer
	n   uint64
}

func (j *spanJournal) Append(m fusion.Meas) error {
	t0 := time.Now()
	_, err := j.log.Append(wal.Record{SensorID: m.SensorID, CPM: m.CPM, Step: m.Step, Seq: m.Seq})
	j.t.add(span{Name: "wal.append", Start: j.t.at(t0), End: j.t.at(time.Now())})
	j.n++
	return err
}

// layerReplay sends the first zone's readings through the layers one
// at a time, in process: a fusion.Engine journaling to a wal.Log
// (Submit, Snapshot, checkpoints), a bare core.Localizer (Ingest,
// Estimates), then wal.Log.Replay of that journal into a fresh engine
// and wal.LoadCheckpointFS of its last checkpoint.
func (b *bench) layerReplay() (replayStats, error) {
	t := b.tr
	in := b.ins[0]
	sc := b.sp.sc
	dir := filepath.Join(b.work, "replay")
	pol := wal.FsyncNever
	if b.sp.wal {
		var err error
		if pol, err = wal.ParseFsyncPolicy(b.sp.fsync); err != nil {
			return replayStats{}, err
		}
	}
	log, _, err := wal.Open(dir, wal.Options{Fsync: pol})
	if err != nil {
		return replayStats{}, err
	}
	reg := obs.NewRegistry()
	cfg := engineConfig(sc, b.o.seed)
	cfg.Localizer.Metrics = reg
	j := &spanJournal{log: log, t: t}
	cfg.Journal = j
	e, err := fusion.NewEngine(cfg)
	if err != nil {
		return replayStats{}, err
	}
	every := uint64(b.sp.ckptEvery)
	if every == 0 {
		every = 1000
	}
	var lastCkpt uint64
	ckpts := 0
	// checkpoint does what the node's checkpointer does: export under the
	// engine lock, sync the log through it, write the file.
	checkpoint := func() error {
		lastCkpt = j.n
		ckpts++
		t0 := time.Now()
		st, err := e.ExportState()
		if err != nil {
			return err
		}
		blob, err := json.Marshal(st)
		if err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
		if err := wal.WriteCheckpointFS(vfs.OS{}, dir, wal.Checkpoint{Applied: st.Journaled, State: blob}); err != nil {
			return err
		}
		t.add(span{Name: "wal.checkpoint", Start: t.at(t0), End: t.at(time.Now()), Bytes: len(blob)})
		return nil
	}
	ctx := context.Background()
	rounds := in.rounds[:b.total()]
	for r := range rounds {
		t0 := time.Now()
		if _, err := e.Submit(ctx, toMeas(rounds[r])); err != nil {
			return replayStats{}, err
		}
		t.add(span{Name: "fusion.submit", Start: t.at(t0), End: t.at(time.Now())})
		t0 = time.Now()
		e.Snapshot()
		t.add(span{Name: "fusion.snapshot_replay", Start: t.at(t0), End: t.at(time.Now())})
		if j.n-lastCkpt >= every {
			if err := checkpoint(); err != nil {
				return replayStats{}, err
			}
		}
	}
	if ckpts == 0 {
		// A short replay never reaches the cadence; take the checkpoint
		// shutdown would.
		if err := checkpoint(); err != nil {
			return replayStats{}, err
		}
	}
	snap := e.Snapshot()
	st := replayStats{released: j.n, refreshes: snap.Refreshes, stageMS: map[string]float64{}}
	refreshes := float64(max(snap.Refreshes, 1))
	for _, stage := range []string{"select", "predict", "weight", "resample"} {
		st.stageMS[stage] = core.StageHistogram(reg, stage).Sum() * 1000 / refreshes
	}
	if err := log.Close(); err != nil {
		return replayStats{}, err
	}

	// Recovery path: the journal back through Engine.Replay.
	log2, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return replayStats{}, err
	}
	fresh, err := fusion.NewEngine(engineConfig(sc, b.o.seed))
	if err != nil {
		return replayStats{}, err
	}
	t0 := time.Now()
	n := 0
	err = log2.Replay(0, func(_ uint64, rec wal.Record) error {
		fresh.Replay(fusion.Meas{SensorID: rec.SensorID, CPM: rec.CPM, Step: rec.Step, Seq: rec.Seq})
		n++
		return nil
	})
	el := time.Since(t0)
	t.add(span{Name: "wal.replay", Start: t.at(t0), End: t.at(time.Now()), N: n})
	if cerr := log2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return replayStats{}, err
	}
	st.replayRate = float64(n) / el.Seconds()
	b.t.check("layer replay: WAL replay reproduces the journaling engine", sameState(viewOf(fresh.Snapshot()), viewOf(snap)))
	t0 = time.Now()
	if _, _, err := wal.LoadCheckpointFS(vfs.OS{}, dir); err != nil {
		return replayStats{}, err
	}
	t.add(span{Name: "wal.load_checkpoint", Start: t.at(t0), End: t.at(time.Now())})

	// The bare filter: one Ingest span per reading, one Estimates span
	// per sensor round.
	lcfg := cfg.Localizer
	lcfg.Metrics = nil
	loc, err := core.NewLocalizer(lcfg)
	if err != nil {
		return replayStats{}, err
	}
	sens := map[int]sensor.Sensor{}
	for _, s := range sc.Sensors {
		sens[s.ID] = s
	}
	modes, calls := 0, 0
	for _, row := range rounds {
		for _, r := range row {
			t0 := time.Now()
			loc.Ingest(sens[r.SensorID], r.CPM)
			t.add(span{Name: "core.ingest", Start: t.at(t0), End: t.at(time.Now())})
		}
		t0 := time.Now()
		ests := loc.Estimates()
		t.add(span{Name: "meanshift.estimate", Start: t.at(t0), End: t.at(time.Now()), N: len(ests)})
		modes += len(ests)
		calls++
	}
	st.modes = float64(modes) / float64(max(calls, 1))
	return st, nil
}
