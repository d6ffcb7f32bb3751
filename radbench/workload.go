package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/sim"
	"radloc/internal/track"
	"radloc/internal/transport"
)

// reorderWindow is the daemon's default sequence-gate window in
// rounds: round k is released (journaled, applied, refreshed) only
// once a reading of round k+reorderWindow arrives.
const reorderWindow = 4

// warmRounds are the rounds set-up sends before timing starts: the
// first round is released, applied and refreshed only when round
// reorderWindow arrives.
const warmRounds = reorderWindow + 1

// spec pins everything a workload's inputs and daemon flags depend on.
// The rates are pinned here, not measured per run, so every commit is
// offered the same load.
type spec struct {
	name string
	// sc is the deployment every zone runs.
	sc scenario.Scenario
	// zones are the zone names; "" is the daemon's default zone.
	zones []string
	// rounds are the timed sensor rounds per zone, after warmRounds.
	rounds int
	// batch is the readings per POST.
	batch int
	// agents is the closed-loop agent count (fuse-b); 0 = open loop.
	agents int
	// rate is the open-loop offered load in readings per second.
	rate float64
	// readRate is the open-loop /snapshot rate, reads per second.
	readRate float64
	// wal enables durability with this fsync policy.
	wal   bool
	fsync string
	// ckptEvery is the daemon's -checkpoint-every.
	ckptEvery int
	// prepRounds (restart-b) are the rounds the crashed primary took
	// before the restart; rounds are then the live tail after it.
	prepRounds int
	// minEpisodes is the fewest episodes a run makes, whatever
	// --seconds says.
	minEpisodes int
	// scoreRounds, when larger than the rounds the daemon gets, runs
	// the reference engine on to this many rounds for the accuracy
	// score alone: one Scenario B run's error spreads widely across
	// seeds, and more refreshes average it down.
	scoreRounds int
}

// specs are the benchmark's workloads. Sizes are chosen so a run of
// 30 s holds enough acks for a p99 with at least 10 samples beyond it.
var specs = map[string]spec{
	// Scenario B, one zone, durability off, two closed-loop agents:
	// the filter and mean-shift refresh do almost all the work.
	"fuse-b": {
		name: "fuse-b", sc: scenario.B(true), zones: []string{""},
		rounds: 80, batch: 14, agents: 2, readRate: 80,
		minEpisodes: 3, scoreRounds: 100,
	},
	// Scenario A in 8 zones, WAL with fsync per record, open loop. The
	// parent acks about 1,780 readings/s offered without limit on a quiet
	// 2-CPU host, and a disturbed host fsyncs several times slower; at
	// 300/s a released round (36 fsyncs plus its filter work) keeps the
	// writer busy well under half the time even then, so queueing does
	// not amplify fsync jitter into the latencies.
	"durable-a8": {
		name: "durable-a8", sc: scenario.A(50, true),
		zones:  []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"},
		rounds: 6, batch: 6, rate: 300, readRate: 80,
		wal: true, fsync: "always", ckptEvery: 360,
		minEpisodes: 3, scoreRounds: 25,
	},
	// Scenario B primary restarted from a checkpoint plus WAL suffix,
	// then an empty standby catching up over /cluster replication, then
	// a light open-loop live tail (2.5 rounds/s; each round's release
	// and refresh keeps the primary's writer busy ~15% of the time).
	"restart-b": {
		name: "restart-b", sc: scenario.B(true), zones: []string{""},
		prepRounds: 40, rounds: 12, batch: 7, rate: 490, readRate: 80,
		wal: true, fsync: "batch", ckptEvery: 2940,
		minEpisodes: 3,
	},
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	var out []string
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// zoneInput is one zone's readings, round by round.
type zoneInput struct {
	zone   string
	rounds [][]transport.Reading
}

// genInputs draws every zone's readings from the seed. Round k of
// every sensor carries Seq k+1, as `radloc agent` stamps them. A zone's
// stream depends only on (seed, workload, zone), so the same seed
// always gives the same inputs.
func genInputs(sp spec, seed uint64, total int) []zoneInput {
	out := make([]zoneInput, len(sp.zones))
	for zi, z := range sp.zones {
		st := rng.NewNamed(seed, "radbench/"+sp.name+"/"+z)
		in := zoneInput{zone: z, rounds: make([][]transport.Reading, total)}
		for r := 0; r < total; r++ {
			row := make([]transport.Reading, 0, len(sp.sc.Sensors))
			for _, sen := range sp.sc.Sensors {
				m := sen.Measure(st, sp.sc.Sources, sp.sc.Obstacles, r)
				row = append(row, transport.Reading{SensorID: sen.ID, CPM: m.CPM, Step: r, Seq: uint64(r + 1)})
			}
			in.rounds[r] = row
		}
		out[zi] = in
	}
	return out
}

// engineConfig is the fusion configuration radlocd builds for every
// zone under the benchmark's flags: tracks and health on, the run's
// seed, default reorder window.
func engineConfig(sc scenario.Scenario, seed uint64) fusion.Config {
	cfg := fusion.Config{
		Localizer: sim.LocalizerConfig(sc),
		Sensors:   sc.Sensors,
		Tracking:  &track.Config{},
	}
	cfg.Localizer.Seed = seed
	return cfg
}

func toMeas(rs []transport.Reading) []fusion.Meas {
	out := make([]fusion.Meas, len(rs))
	for i, r := range rs {
		out[i] = fusion.Meas{SensorID: r.SensorID, CPM: r.CPM, Step: r.Step, Seq: r.Seq}
	}
	return out
}

// accuracy is the Section VI scoring of a run's estimates: mean
// localization error over matched sources, and false positives and
// negatives under the scenario's match radius, summed over every
// refresh the reference engine made after warm-up.
type accuracy struct {
	LocErr   float64 `json:"loc_err"`
	FalsePos int     `json:"false_pos"`
	FalseNeg int     `json:"false_neg"`
	Scored   int     `json:"scored_refreshes"`
}

// scorer accumulates accuracy over refreshes of every zone.
type scorer struct {
	acc    accuracy
	errSum float64
	errN   int
}

func (s *scorer) add(m eval.Matching) {
	if me := m.MeanError(); !math.IsNaN(me) {
		s.errSum += me
		s.errN++
	}
	s.acc.FalsePos += m.FalsePos
	s.acc.FalseNeg += m.FalseNeg
	s.acc.Scored++
}

// result is the accuracy so far, with loc_err averaged over the
// refreshes that matched anything.
func (s *scorer) result() accuracy {
	a := s.acc
	if s.errN > 0 {
		a.LocErr = s.errSum / float64(s.errN)
	}
	return a
}

// reference feeds one zone's rounds through an in-process engine built
// exactly as the daemon builds a zone, one round per Submit, and
// scores every refresh after the warm-up rounds up to round score. It
// returns the engine's state after round n, the state the daemon's
// zone must reach.
func reference(sc scenario.Scenario, seed uint64, in zoneInput, n, score int, sco *scorer) (snapshotView, error) {
	e, err := fusion.NewEngine(engineConfig(sc, seed))
	if err != nil {
		return snapshotView{}, err
	}
	var last uint64
	var want snapshotView
	for r := 0; r < max(n, score); r++ {
		res, err := e.Submit(context.Background(), toMeas(in.rounds[r]))
		if err != nil {
			return snapshotView{}, err
		}
		if res.Rejected != 0 || res.Duplicate != 0 {
			return snapshotView{}, fmt.Errorf("reference zone %q round %d: %d rejected, %d duplicate", in.zone, r, res.Rejected, res.Duplicate)
		}
		s := e.Snapshot()
		if r == n-1 {
			want = viewOf(s)
		}
		if s.Refreshes == last || r < warmRounds || r >= score {
			last = s.Refreshes
			continue
		}
		last = s.Refreshes
		sco.add(eval.Match(s.Estimates, sc.Sources, sc.Params.MatchRadius))
	}
	return want, nil
}
