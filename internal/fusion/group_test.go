package fusion

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"

	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/sim"
	"radloc/internal/track"
)

var errDiskFull = errors.New("disk full")

// groupJournal is an in-memory BatchJournal. It records every journaled
// reading and the size of each AppendBatch call; when failAt ≥ 0 the
// append that would journal record number failAt (0-based, counted
// over the journal's life) fails after the records before it, once.
type groupJournal struct {
	recs   []Meas
	groups []int
	failAt int
}

func (j *groupJournal) Append(m Meas) error {
	_, err := j.AppendBatch([]Meas{m})
	return err
}

func (j *groupJournal) AppendBatch(ms []Meas) (int, error) {
	for i, m := range ms {
		if len(j.recs) == j.failAt {
			j.failAt = -1
			return i, errDiskFull
		}
		j.recs = append(j.recs, m)
	}
	j.groups = append(j.groups, len(ms))
	return len(ms), nil
}

// journaledEngine builds the seqEngine configuration around journal j
// and registry reg (nil = private).
func journaledEngine(t *testing.T, j Journal, reg *obs.Registry) (*Engine, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := Config{
		Localizer:     sim.LocalizerConfig(sc),
		Sensors:       sc.Sensors,
		Tracking:      &track.Config{},
		Journal:       j,
		ReorderWindow: 2,
		Metrics:       reg,
	}
	cfg.Localizer.Seed = 5
	cfg.Localizer.Workers = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sc
}

// messySchedule renders a seeded adversarial delivery of the
// sequenced Scenario A stream, cut into batches of 1–9 readings: a
// few readings are lost (sequence gaps), some are delivered twice,
// arrival order is shuffled within about a third of a round, and a
// few readings are held back past the reorder window so they arrive
// late, after their round was released.
func messySchedule(t *testing.T, sc scenario.Scenario, steps int, seed uint64) [][]Meas {
	t.Helper()
	r := rng.NewNamed(seed, "group-test/schedule")
	n := len(sc.Sensors)
	type arrival struct {
		at float64
		m  Meas
	}
	var arr []arrival
	for i, m := range seqStream(t, sc, steps, seed) {
		switch u := r.Float64(); {
		case u < 0.03:
			continue // lost for good
		case u < 0.06:
			// Late: after its round's release (when round k+2 starts
			// arriving) but before the sensor's next reading is
			// released, which would make it a stale duplicate.
			k := i / n
			arr = append(arr, arrival{float64((k+2)*n + n/3 + r.IntN(n/3)), m})
		default:
			arr = append(arr, arrival{float64(i) + 12*r.Float64(), m})
		}
		if r.Float64() < 0.15 {
			arr = append(arr, arrival{float64(i) + 30*r.Float64(), m}) // redelivery
		}
	}
	sort.SliceStable(arr, func(a, b int) bool { return arr[a].at < arr[b].at })
	var out [][]Meas
	for len(arr) > 0 {
		k := min(1+r.IntN(9), len(arr))
		batch := make([]Meas, k)
		for i := range batch {
			batch[i] = arr[i].m
		}
		out = append(out, batch)
		arr = arr[k:]
	}
	return out
}

// exportBytes is the engine's checkpoint encoding.
func exportBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSchedule submits every batch and flushes the gate's tail.
func runSchedule(t *testing.T, e *Engine, sched [][]Meas) {
	t.Helper()
	for _, batch := range sched {
		if _, err := e.Submit(context.Background(), batch); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if _, err := e.FlushPending(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupJournalMatchesPerRecord: an engine whose journal takes each
// release group in one AppendBatch and an engine whose journal only
// has Append, run on the same seeded adversarial schedules, journal
// the identical record sequence and end in byte-identical exported
// state — and the group journal really was handed multi-reading
// groups.
func TestGroupJournalMatchesPerRecord(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		gj := &groupJournal{failAt: -1}
		var single []Meas
		ge, sc := journaledEngine(t, gj, nil)
		se, _ := journaledEngine(t, journalFunc(func(m Meas) error {
			single = append(single, m)
			return nil
		}), nil)
		sched := messySchedule(t, sc, 12, seed)
		runSchedule(t, ge, sched)
		runSchedule(t, se, sched)

		if !reflect.DeepEqual(gj.recs, single) {
			t.Fatalf("seed %d: journaled records differ (group %d, per-record %d)", seed, len(gj.recs), len(single))
		}
		if gb, sb := exportBytes(t, ge), exportBytes(t, se); !bytes.Equal(gb, sb) {
			t.Fatalf("seed %d: exported state differs between group and per-record journaling", seed)
		}
		largest := 0
		for _, g := range gj.groups {
			if g == 0 {
				t.Fatalf("seed %d: an empty group reached the journal", seed)
			}
			largest = max(largest, g)
		}
		if largest < len(sc.Sensors)/2 {
			t.Errorf("seed %d: largest journal group %d readings; releases were not grouped", seed, largest)
		}
		d := ge.Snapshot().Delivery
		if d.Duplicates == 0 || d.Late == 0 || d.GapSkips == 0 || d.OutOfOrder == 0 {
			t.Errorf("seed %d: schedule did not exercise the gate: %+v", seed, d)
		}
	}
}

// TestJournalErrorMidReleaseHoldsRest: a journal that fails at record
// k of a release group leaves exactly the k journaled readings
// applied and the rest held; resuming the delivery once the journal
// heals ends byte-identical to a run whose journal never failed.
func TestJournalErrorMidReleaseHoldsRest(t *testing.T) {
	clean := &groupJournal{failAt: -1}
	ce, sc := journaledEngine(t, clean, nil)
	sched := messySchedule(t, sc, 10, 4)
	runSchedule(t, ce, sched)

	n := len(sc.Sensors)
	failAt := 3*n + n/2 // mid-way through a release group
	fj := &groupJournal{failAt: failAt}
	fe, _ := journaledEngine(t, fj, nil)
	failed := false
	for _, batch := range sched {
		res, err := fe.Submit(context.Background(), batch)
		if err == nil {
			continue
		}
		var je *JournalError
		if failed || !errors.As(err, &je) || !errors.Is(err, errDiskFull) {
			t.Fatalf("submit: %v", err)
		}
		failed = true
		s := fe.Snapshot()
		if s.Journaled != uint64(failAt) || len(fj.recs) != failAt {
			t.Fatalf("after the failure: engine journaled %d, journal holds %d; want %d", s.Journaled, len(fj.recs), failAt)
		}
		if s.Ingested+s.Rejected+droppedTotal(s) != uint64(failAt) {
			t.Fatalf("applied %d readings (ingested %d, rejected %d, dropped %d), want the %d journaled",
				s.Ingested+s.Rejected+droppedTotal(s), s.Ingested, s.Rejected, droppedTotal(s), failAt)
		}
		if s.Delivery.Pending == 0 {
			t.Fatal("the unjournaled rest of the release group was not held")
		}
		// The reading that triggered the release is held with the rest;
		// the transport resumes after it.
		offered := res.Accepted + res.Duplicate + res.Rejected + 1
		if _, err := fe.Submit(context.Background(), batch[offered:]); err != nil {
			t.Fatalf("resume: %v", err)
		}
	}
	if !failed {
		t.Fatal("the journal never failed")
	}
	if _, err := fe.FlushPending(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fj.recs, clean.recs) {
		t.Fatal("journaled records differ from the clean run")
	}
	if !bytes.Equal(exportBytes(t, fe), exportBytes(t, ce)) {
		t.Fatal("exported state differs from the clean run")
	}
}

// TestReleaseAckBeforeRefresh: the Submit that releases a round
// returns before the round's estimate refresh runs — the refresh is
// only due — and nothing a reader can see depends on whether Settle
// ran first: Snapshot and ExportState settle the due refresh
// themselves. Refresh adds one refresh after the due one.
func TestReleaseAckBeforeRefresh(t *testing.T) {
	type engineRun struct {
		e   *Engine
		ref *obs.Counter
	}
	start := func() (engineRun, []Meas) {
		reg := obs.NewRegistry()
		e, sc := journaledEngine(t, &groupJournal{failAt: -1}, reg)
		return engineRun{e, reg.Counter("radloc_fusion_refreshes_total", "")}, seqStream(t, sc, 6, 9)
	}
	a, stream := start()
	b, _ := start()
	n := len(a.e.sensors)
	// Rounds 1–2 are held (window 2); the first reading of round 3
	// releases round 1, a whole round: EstimateEvery is crossed.
	for _, r := range []engineRun{a, b} {
		if _, err := r.e.Submit(context.Background(), stream[:2*n]); err != nil {
			t.Fatal(err)
		}
		if got := r.ref.Value(); got != 0 {
			t.Fatalf("refreshes = %d before any round was released", got)
		}
		res, err := r.e.Submit(context.Background(), stream[2*n:2*n+1])
		if err != nil || res.Accepted != 1 {
			t.Fatalf("release submit: %+v, %v", res, err)
		}
		if got := r.ref.Value(); got != 0 {
			t.Fatalf("refreshes = %d when the releasing Submit returned; the refresh ran before the ack", got)
		}
	}
	// a: read straight away; b: settle first, then read.
	snapA, stateA := a.e.Snapshot(), exportBytes(t, a.e)
	b.e.Settle()
	if got := b.ref.Value(); got != 1 {
		t.Fatalf("Settle ran %d refreshes, want 1", got)
	}
	b.e.Settle()
	if got := b.ref.Value(); got != 1 {
		t.Fatalf("a second Settle ran a refresh with none due (refreshes %d)", got)
	}
	snapB, stateB := b.e.Snapshot(), exportBytes(t, b.e)
	if a.ref.Value() != 1 || snapA.Refreshes != 1 {
		t.Fatalf("reader did not settle the due refresh: counter %d, snapshot %d", a.ref.Value(), snapA.Refreshes)
	}
	if !reflect.DeepEqual(comparable(snapA), comparable(snapB)) || !bytes.Equal(stateA, stateB) {
		t.Fatal("state read before Settle differs from state read after it")
	}

	// Releasing round 2 makes a refresh due again; Refresh settles it,
	// then forces one more.
	for _, r := range []engineRun{a, b} {
		if _, err := r.e.Submit(context.Background(), stream[2*n+1:3*n+1]); err != nil {
			t.Fatal(err)
		}
		r.e.Refresh()
		if got := r.ref.Value(); got != 3 {
			t.Fatalf("refreshes after Refresh with one due = %d, want 3", got)
		}
	}
}
