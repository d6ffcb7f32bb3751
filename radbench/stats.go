package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentiles are the candidates the reporting rule picks from, in
// ascending order.
var percentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything: with fewer, "p99" is just the maximum.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestPercentile returns the highest candidate percentile with at
// least minBeyond of n samples strictly beyond its rank, and false
// when not even the median qualifies.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentiles {
		if n-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of xs (NaN when
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is percentile 50 with the midpoint rule for even counts, the
// form used to summarize a handful of per-episode values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slot is one open-loop send: when the schedule said it was due, when
// the generator actually issued it, and when its ack arrived, all as
// offsets from the schedule's start.
type slot struct {
	due, sent, acked time.Duration
}

// dueAt returns the due offset of the i-th send of an open-loop
// schedule that issues items of size per item at rate items' worth of
// units per second (e.g. batches of 9 readings at 1200 readings/s).
func dueAt(i int, size int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(size) / rate * float64(time.Second))
}

// latency is a send's latency measured from its due time, so a stall
// that delays later sends counts against them too.
func (s slot) latency() time.Duration { return s.acked - s.due }

// lateness is how far behind its schedule the generator issued the
// send (never negative: issuing early is impossible by construction,
// but a clock read before the due instant rounds to zero).
func (s slot) lateness() time.Duration {
	if s.sent < s.due {
		return 0
	}
	return s.sent - s.due
}

// estimateAge returns how stale the estimate a read returned was:
// the read's completion time minus the send time of the last reading
// of the newest sensor round the returned refresh count covers. One
// refresh happens per released round, and the timed rounds are
// consecutive, so refresh count anchorRef + j covers round
// anchorRound + j. roundSent[k] is round k's last send offset, or
// negative when that round was not sent in the timed phase; ok is
// false when the covered round is unknown.
func estimateAge(readAt time.Duration, refreshes, anchorRef uint64, anchorRound int, roundSent []time.Duration) (time.Duration, bool) {
	if refreshes < anchorRef {
		return 0, false
	}
	k := anchorRound + int(refreshes-anchorRef)
	if k < 0 || k >= len(roundSent) || roundSent[k] < 0 {
		return 0, false
	}
	return readAt - roundSent[k], true
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName reports a name outside the grammar.
func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	return nil
}
