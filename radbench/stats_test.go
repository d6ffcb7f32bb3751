package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},   // median rank 10 leaves 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{99, 50, true},   // p90 rank 90 leaves 9
		{100, 90, true},  // p90 rank 90 leaves 10
		{200, 95, true},  // p95 rank 190 leaves 10
		{999, 95, true},  // p99 rank 990 leaves 9
		{1000, 99, true}, // p99 rank 990 leaves 10
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %g, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestOpenLoopDueAndLateness(t *testing.T) {
	// 9-reading batches at 900 readings/s are due every 10 ms.
	if got := dueAt(3, 9, 900); got != 30*time.Millisecond {
		t.Errorf("dueAt(3) = %v, want 30ms", got)
	}
	// A send issued 4 ms behind schedule and acked 6 ms after that:
	// lateness 4 ms, latency 10 ms from the due time, not 6 ms from
	// the send.
	s := slot{due: 30 * time.Millisecond, sent: 34 * time.Millisecond, acked: 40 * time.Millisecond}
	if s.lateness() != 4*time.Millisecond {
		t.Errorf("lateness = %v, want 4ms", s.lateness())
	}
	if s.latency() != 10*time.Millisecond {
		t.Errorf("latency = %v, want 10ms", s.latency())
	}
	// A clock read that lands before the due instant is not early work.
	early := slot{due: 30 * time.Millisecond, sent: 29 * time.Millisecond, acked: 31 * time.Millisecond}
	if early.lateness() != 0 {
		t.Errorf("early lateness = %v, want 0", early.lateness())
	}
}

func TestEstimateAge(t *testing.T) {
	// Rounds 0-4 were warm-up (unknown send times); timed rounds 5-7
	// finished sending at 100, 200 and 300 ms. Refresh 1 covers round
	// 0, so refresh 7 covers round 6.
	sent := []time.Duration{-1, -1, -1, -1, -1, 100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	age, ok := estimateAge(450*time.Millisecond, 7, 1, 0, sent)
	if !ok || age != 250*time.Millisecond {
		t.Errorf("age = %v, %v; want 250ms, true", age, ok)
	}
	// A read covering only warm-up rounds has no age.
	if _, ok := estimateAge(450*time.Millisecond, 3, 1, 0, sent); ok {
		t.Error("warm-up round gave an age")
	}
	// Nor does a refresh count below the anchor or past the sent rounds.
	if _, ok := estimateAge(time.Second, 0, 1, 0, sent); ok {
		t.Error("refresh count below the anchor gave an age")
	}
	if _, ok := estimateAge(time.Second, 9, 1, 0, sent); ok {
		t.Error("unsent round gave an age")
	}
	// After a restart the anchor moves: recovered refresh count 36 plus
	// one covers the first live round, 40.
	live := make([]time.Duration, 42)
	for i := range live {
		live[i] = -1
	}
	live[40], live[41] = 10*time.Millisecond, 20*time.Millisecond
	if age, ok := estimateAge(70*time.Millisecond, 38, 37, 40, live); !ok || age != 50*time.Millisecond {
		t.Errorf("restart age = %v, %v; want 50ms, true", age, ok)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"readings_per_s", "core.ingest_us_p50", "go.gc_cycles_per_kreading", "a-b.c_9"} {
		if err := checkMetricName(ok); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünï", string(make([]byte, 65))} {
		if checkMetricName(bad) == nil {
			t.Errorf("checkMetricName(%q) accepted", bad)
		}
	}
}

// Every metric the benchmark declares must follow the grammar too.
func TestDeclaredMetricNames(t *testing.T) {
	for _, n := range append(endToEnd, perLayer...) {
		if err := checkMetricName(n); err != nil {
			t.Error(err)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("covered = %v, want 40", got)
	}
}

func TestCohortMismatchIgnoresSource(t *testing.T) {
	a := cohort{Source: "aaa", GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2, Kernel: "6", WALFS: "ext4", Seed: 1}
	b := a
	b.Source = "bbb"
	if mm := a.mismatch(b); len(mm) != 0 {
		t.Errorf("different sources should compare: %v", mm)
	}
	b.WALFS = "tmpfs"
	b.Seed = 2
	if mm := a.mismatch(b); len(mm) != 2 {
		t.Errorf("mismatch = %v, want wal_fs and seed", mm)
	}
}

// The declared lists must be exactly what BENCHMARK.json names.
func TestDeclaredMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(bj.Workloads), workloadNames()},
		{"end_to_end", names(bj.EndToEnd), endToEnd},
		{"per_layer", names(bj.PerLayer), perLayer},
	} {
		got, want := append([]string(nil), c.got...), append([]string(nil), c.want...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark declares %v", c.what, got, want)
		}
	}
}

func TestWaitUntilWakesOnTimeAndStops(t *testing.T) {
	start := time.Now()
	if !waitUntil(start, 5*time.Millisecond, nil) {
		t.Fatal("waitUntil gave up without a stop")
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Errorf("woke after %v, before the 5ms due instant", el)
	}
	stop := make(chan struct{})
	close(stop)
	if waitUntil(time.Now(), time.Hour, stop) {
		t.Error("waitUntil ignored a closed stop channel")
	}
	if waitUntil(start, 0, stop) {
		t.Error("a past due instant must still honour stop")
	}
}
