package wal

import (
	"time"

	"radloc/internal/obs"
)

// walMetrics instruments one Log. All methods are nil-receiver safe so
// an uninstrumented log (Options.Metrics == nil) pays one branch and
// never reads the clock.
type walMetrics struct {
	appends, fsyncs, rotations *obs.Counter
	replayed                   *obs.Counter
	truncatedRecords           *obs.Counter
	droppedSegments            *obs.Counter
	appendSeconds              *obs.Histogram
	fsyncSeconds               *obs.Histogram
	replaySeconds              *obs.Histogram
	offset, segments           *obs.Gauge
	retainedSegments           *obs.Gauge
}

// newWALMetrics registers the log's collectors on r; nil r disables
// instrumentation entirely (nil walMetrics).
func newWALMetrics(r *obs.Registry) *walMetrics {
	if r == nil {
		return nil
	}
	return &walMetrics{
		appends: r.Counter("radloc_wal_appends_total",
			"Records appended to the write-ahead log."),
		fsyncs: r.Counter("radloc_wal_fsyncs_total",
			"fsync calls issued on the active segment."),
		rotations: r.Counter("radloc_wal_rotations_total",
			"Segment rotations (active tail sealed, new segment opened)."),
		replayed: r.Counter("radloc_wal_replayed_records_total",
			"Records streamed out by Replay (recovery and spool reads)."),
		truncatedRecords: r.Counter("radloc_wal_recovery_truncated_records_total",
			"Corrupt or torn records discarded by recovery on Open."),
		droppedSegments: r.Counter("radloc_wal_recovery_dropped_segments_total",
			"Whole segment files discarded by recovery on Open."),
		appendSeconds: r.Histogram("radloc_wal_append_seconds",
			"Wall-clock seconds per append call (one record or one group), including its fsyncs.", nil),
		fsyncSeconds: r.Histogram("radloc_wal_fsync_seconds",
			"Wall-clock seconds per flush+fsync of the active segment.", nil),
		replaySeconds: r.Histogram("radloc_wal_replay_seconds",
			"Wall-clock seconds per Replay call.", nil),
		offset: r.Gauge("radloc_wal_offset",
			"Global record index the next append will receive."),
		segments: r.Gauge("radloc_wal_segments",
			"Live segment files, including the active tail."),
		retainedSegments: r.Gauge("radloc_wal_retained_segments",
			"Segments held past the checkpoint watermark because a lagging replica still needs them."),
	}
}

// now returns the wall clock when instrumented, zero otherwise.
func (m *walMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records elapsed time since t0 into h; no-op when off.
func (m *walMetrics) observe(h *obs.Histogram, t0 time.Time) {
	if m == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// appended accounts one successful append call of n records, after
// which the next record gets offset next.
func (m *walMetrics) appended(t0 time.Time, n int, next uint64) {
	if m == nil {
		return
	}
	m.appends.Add(uint64(n))
	m.offset.Set(float64(next))
	m.observe(m.appendSeconds, t0)
}

// synced accounts one flush+fsync.
func (m *walMetrics) synced(t0 time.Time) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	m.observe(m.fsyncSeconds, t0)
}

// layout refreshes the segment-count and offset gauges.
func (m *walMetrics) layout(segments int, next uint64) {
	if m == nil {
		return
	}
	m.segments.Set(float64(segments))
	m.offset.Set(float64(next))
}

// retained refreshes the replica-retention gauge after a Prune pass.
func (m *walMetrics) retained(n int) {
	if m == nil {
		return
	}
	m.retainedSegments.Set(float64(n))
}

// recovered folds one Open's recovery stats into the counters.
func (m *walMetrics) recovered(stats RecoveryStats) {
	if m == nil {
		return
	}
	m.truncatedRecords.Add(stats.TruncatedRecords)
	m.droppedSegments.Add(uint64(stats.DroppedSegments))
}

// rotated accounts one segment rotation.
func (m *walMetrics) rotated(segments int) {
	if m == nil {
		return
	}
	m.rotations.Inc()
	m.segments.Set(float64(segments))
}

// replayDone accounts one Replay call streaming n records.
func (m *walMetrics) replayDone(t0 time.Time, n uint64) {
	if m == nil {
		return
	}
	m.replayed.Add(n)
	m.observe(m.replaySeconds, t0)
}
