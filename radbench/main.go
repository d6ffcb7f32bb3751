// Command radbench is the radloc benchmark: it runs one named workload
// from a seed against radlocd processes built from the checkout,
// checks their outputs against an in-process reference, and prints
// every end-to-end metric by name and unit. With --trace 1 it runs the
// same inputs in one process instead, with spans around every layer,
// and prints the per-layer metrics.
//
//	radbench/run.sh --workload fuse-b --seed 1 --seconds 20 --trace 0
//	radbench/run.sh compare before.txt after.txt
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "radbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radbench:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
	radlocd  string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("radbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root (scratch files go under .bench_build)")
	fs.StringVar(&o.radlocd, "radlocd", "", "radlocd binary built from the checkout (required)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := specs[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.radlocd == "" {
		return o, fmt.Errorf("missing --radlocd")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	o.trace = trace == 1
	return o, nil
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares:
// an untraced run reports exactly the first set, a traced run exactly
// the second.
var (
	endToEnd = []string{
		"readings_per_s", "ack_p50_ms", "ack_p99_ms", "read_p50_ms",
		"estimate_age_p50_ms", "setup_s", "cpu_ms_per_reading", "peak_rss_mb", "loc_err",
	}
	perLayer = []string{
		"loadgen.late_p99_ms", "transport.retries", "httpingest.shed", "httpingest.request_ms_p50",
		"zone.submit_ms_p50", "zone.submit_ms_p99", "fusion.release_readings", "fusion.refreshes",
		"fusion.snapshot_ms_p50", "core.ingest_us_p50", "core.select_ms", "core.predict_ms",
		"core.weight_ms", "core.resample_ms", "meanshift.estimate_ms_p50", "meanshift.modes",
		"wal.append_us_p50", "wal.fsyncs_per_reading", "wal.checkpoint_ms_p50", "wal.replay_records_per_s",
		"vfs.sync_us_p50", "vfs.sync_us_p99", "vfs.write_bytes_per_reading", "node.new_ms",
		"cluster.pulls", "cluster.records_per_pull", "cluster.pull_ms_p50", "go.gc_cycles_per_kreading",
		"trace.overhead_pct", "eval.false_pos", "eval.false_neg",
	}
)

// sameNames reports a reported metric set that differs from the
// declared one.
func sameNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("declared metric %q not reported", n)
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run, printed on a "report" line
// before the result: what ran, where, and what it found.
type report struct {
	Cohort   cohort            `json:"cohort"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Episodes int               `json:"episodes"`
	Samples  map[string]int    `json:"samples"`
	Metrics  map[string]metric `json:"metrics"`
	Accuracy accuracy          `json:"accuracy"`
	Checks   []string          `json:"checks"`
	Failures []string          `json:"failures,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

// tally counts operations and checks: every batch, read and
// correctness check is attempted once and either passes or fails.
type tally struct {
	attempted, failed int
	checks, failures  []string
}

func (t *tally) ops(ok, bad int) {
	t.attempted += ok + bad
	t.failed += bad
}

// check records one correctness check.
func (t *tally) check(name string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, name+": "+err.Error())
		return
	}
	t.checks = append(t.checks, name)
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	sp := specs[o.workload]
	co, err := fingerprint(root, work, o.seed)
	if err != nil {
		return err
	}
	b := &bench{o: o, sp: sp, work: work}
	if err := b.prepare(); err != nil {
		return err
	}
	var rep report
	if o.trace {
		rep, err = b.traced()
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		return err
	}
	rep.Cohort = co
	rep.Workload = o.workload
	rep.Trace = o.trace
	rep.Accuracy = b.acc
	rep.Checks = b.t.checks
	rep.Failures = b.t.failures
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	if err := sameNames(rep.Metrics, declared); err != nil {
		return err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("host speed probe: the reference engine took %.2f us per reading, single-threaded", b.probeUS))
	if note := baselineNote(root, o.workload, o.seed, b.acc); note != "" {
		rep.Notes = append(rep.Notes, note)
	}
	return emit(os.Stdout, rep, result{
		Correct:   b.t.failed == 0 && len(b.t.failures) == 0,
		Attempted: b.t.attempted,
		Failed:    b.t.failed,
		Metrics:   rep.Metrics,
	})
}

// emit prints the human-readable lines, the report line and, last, the
// result line.
func emit(w *os.File, rep report, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if err := checkMetricName(n); err != nil {
			return err
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[n] = m
		}
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "cohort %s\n", rep.Cohort)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "accuracy loc_err=%.4f false_pos=%d false_neg=%d over %d refreshes\n",
		rep.Accuracy.LocErr, rep.Accuracy.FalsePos, rep.Accuracy.FalseNeg, rep.Accuracy.Scored)
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "check ok   %s\n", c)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "check FAIL %s\n", f)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", blob)
	blob, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// since is a float seconds helper for set-up timing.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
