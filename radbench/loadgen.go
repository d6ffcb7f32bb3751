package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/rng"
	"radloc/internal/transport"
)

// connTransport returns a loopback HTTP transport holding at most
// conns connections. The load generator uses one for writes and one
// for reads, so it never holds more connections than the host has
// CPUs to serve them.
func connTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

// batch is one POST: part of one zone's sensor round.
type batch struct {
	id    uint64
	zone  string
	round int // index into the zone's rounds
	rs    []transport.Reading
}

// samples are what one episode's load generator observed. Offsets are
// from the episode's timed start.
type samples struct {
	mu        sync.Mutex
	acks      []float64 // ms from due (open loop) or send (closed loop) to ack
	late      []float64 // ms the generator issued a send behind schedule
	reads     []float64 // ms from due to response
	ages      []float64 // ms estimate age per read
	lastAck   time.Duration
	readings  int // readings acked
	batchOK   int
	batchFail int
	readOK    int
	readFail  int
	errs      []string
	// roundSent[zone][round] is the latest send offset of any batch of
	// that round in the timed phase (-1 until sent).
	roundSent map[string][]time.Duration
}

func newSamples(zones []string, rounds int) *samples {
	s := &samples{roundSent: map[string][]time.Duration{}}
	for _, z := range zones {
		rs := make([]time.Duration, rounds)
		for i := range rs {
			rs[i] = -1
		}
		s.roundSent[z] = rs
	}
	return s
}

// sent records that batch b went out at offset at.
func (s *samples) sent(b batch, at time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rs := s.roundSent[b.zone]; b.round < len(rs) && at > rs[b.round] {
		rs[b.round] = at
	}
}

// acked records one batch outcome.
func (s *samples) acked(b batch, sl slot, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.batchFail++
		if len(s.errs) < 8 {
			s.errs = append(s.errs, fmt.Sprintf("zone %q round %d: %v", b.zone, b.round, err))
		}
		return
	}
	s.batchOK++
	s.readings += len(b.rs)
	s.acks = append(s.acks, ms(sl.latency()))
	s.late = append(s.late, ms(sl.lateness()))
	if sl.acked > s.lastAck {
		s.lastAck = sl.acked
	}
}

// liveRun drives one timed phase of sequenced sensor rounds at a
// target and reads /snapshot open-loop while the writers run.
type liveRun struct {
	sp   spec
	base string
	ins  []zoneInput
	from int // first timed round (rounds before it were sent in set-up)
	to   int // end of the timed rounds
	// anchor[zone] is a refresh count and the round it covers; later
	// refreshes cover the following rounds (see estimateAge).
	anchor  map[string]anchor
	write   http.RoundTripper
	read    *http.Client
	seed    uint64
	tr      *tracer // nil when untraced
	clients []*transport.Client
}

// anchor ties a refresh count to the sensor round it covers.
type anchor struct {
	ref   uint64
	round int
}

// newClient builds one agent's transport client for zone.
func (l *liveRun) newClient(zone string, id int) (*transport.Client, error) {
	rt := l.write
	if l.tr != nil {
		rt = stamp{rt}
	}
	c, err := transport.NewClient(transport.Options{
		URL: l.base, Zone: zone, HTTP: rt, Clock: clock.Real{},
		RNG:            rng.NewNamed(l.seed, fmt.Sprintf("radbench/agent/%d", id)),
		BatchSize:      l.sp.batch,
		AttemptTimeout: 60 * time.Second,
		MaxAttempts:    5,
	})
	if err == nil {
		l.clients = append(l.clients, c)
	}
	return c, err
}

// split cuts rounds [from, to) of every zone into per-agent batches,
// in send order: round by round, zone by zone, agent by agent.
func (l *liveRun) split(from, to, agents int) [][]batch {
	per := make([][]batch, agents)
	var id uint64
	for r := from; r < to; r++ {
		for _, in := range l.ins {
			row := in.rounds[r]
			share := (len(row) + agents - 1) / agents
			for a := 0; a < agents; a++ {
				lo, hi := a*share, min((a+1)*share, len(row))
				for i := lo; i < hi; i += l.sp.batch {
					id++
					per[a] = append(per[a], batch{id: id, zone: in.zone, round: r, rs: row[i:min(i+l.sp.batch, hi)]})
				}
			}
		}
	}
	return per
}

// send delivers one batch and records its slot. due is its schedule
// offset; start anchors offsets.
func (l *liveRun) send(ctx context.Context, c *transport.Client, b batch, due time.Duration, start time.Time, s *samples) {
	sent := time.Since(start)
	s.sent(b, sent)
	var err error
	if l.tr != nil {
		err = l.tr.send(ctx, c, b, start.Add(due))
	} else {
		err = c.Send(ctx, b.rs)
	}
	s.acked(b, slot{due: due, sent: sent, acked: time.Since(start)}, err)
}

// warm sends rounds [0, from) as fast as acks return, one batch at a
// time, then waits until every zone has refreshed once.
func (l *liveRun) warm(ctx context.Context) error {
	cs := map[string]*transport.Client{}
	for i, in := range l.ins {
		c, err := l.newClient(in.zone, 1000+i)
		if err != nil {
			return err
		}
		cs[in.zone] = c
	}
	for _, b := range l.split(0, l.from, 1)[0] {
		if err := cs[b.zone].Send(ctx, b.rs); err != nil {
			return fmt.Errorf("warm-up zone %q round %d: %w", b.zone, b.round, err)
		}
	}
	for _, in := range l.ins {
		url := snapshotURL(l.base, in.zone)
		deadline := time.Now().Add(60 * time.Second)
		for {
			v, err := getSnapshot(ctx, l.read, url)
			if err != nil {
				return err
			}
			if v.Refreshes > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("zone %q: no refresh within 60s of warm-up", in.zone)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func getSnapshot(ctx context.Context, c *http.Client, url string) (snapshotView, error) {
	var v snapshotView
	body, err := httpGet(ctx, c, url)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(body, &v)
}

// run drives the timed phase and returns what it observed. Closed
// loop (sp.agents > 0): each agent sends its next batch when the last
// is acked, and starts a round only once every agent has finished the
// previous one. Open loop: batches are due on a fixed schedule at
// sp.rate readings per second.
func (l *liveRun) run(ctx context.Context) (*samples, error) {
	s := newSamples(zoneNames(l.ins), l.to)
	start := time.Now()
	writersDone := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		l.readLoop(ctx, start, s, writersDone)
	}()

	var err error
	if l.sp.agents > 0 {
		err = l.closedLoop(ctx, start, s)
	} else {
		err = l.openLoop(ctx, start, s)
	}
	close(writersDone)
	readers.Wait()
	return s, err
}

// closedLoop runs the agents with a barrier at every round boundary.
// Without it one agent drifts up to a few rounds ahead of the other,
// and the time from a round's last send to its release then depends
// on that drift, which no code change controls.
func (l *liveRun) closedLoop(ctx context.Context, start time.Time, s *samples) error {
	per := l.split(l.from, l.to, l.sp.agents)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	done := make([]int, l.sp.agents) // rounds each agent completed
	var wg sync.WaitGroup
	errc := make(chan error, l.sp.agents)
	for a := range per {
		c, err := l.newClient(l.ins[0].zone, a)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(a int, c *transport.Client) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				done[a] = l.to // a finished (or failed) agent never blocks others
				cond.Broadcast()
				mu.Unlock()
			}()
			bs := per[a]
			for i, b := range bs {
				mu.Lock()
				for slowest(done) < b.round-l.from {
					cond.Wait()
				}
				mu.Unlock()
				l.send(ctx, c, b, time.Since(start), start, s)
				if err := ctx.Err(); err != nil {
					errc <- err
					return
				}
				if i+1 == len(bs) || bs[i+1].round != b.round {
					mu.Lock()
					done[a] = b.round - l.from + 1
					cond.Broadcast()
					mu.Unlock()
				}
			}
		}(a, c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// slowest is the fewest rounds any agent has completed.
func slowest(done []int) int {
	m := done[0]
	for _, d := range done[1:] {
		m = min(m, d)
	}
	return m
}

func (l *liveRun) openLoop(ctx context.Context, start time.Time, s *samples) error {
	bs := l.split(l.from, l.to, 1)[0]
	cs := map[string]*transport.Client{}
	for i, in := range l.ins {
		c, err := l.newClient(in.zone, i)
		if err != nil {
			return err
		}
		cs[in.zone] = c
	}
	var wg sync.WaitGroup
	for i, b := range bs {
		due := dueAt(i, l.sp.batch, l.sp.rate)
		if !waitUntil(start, due, ctx.Done()) {
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func(b batch, due time.Duration) {
			defer wg.Done()
			l.send(ctx, cs[b.zone], b, due, start, s)
		}(b, due)
	}
	wg.Wait()
	return nil
}

// readLoop GETs /snapshot open-loop at sp.readRate, rotating over the
// zones, until the writers finish. Each read's latency counts from its
// due time; its estimate age from the covered round's send time.
func (l *liveRun) readLoop(ctx context.Context, start time.Time, s *samples, stop <-chan struct{}) {
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / l.sp.readRate * float64(time.Second))
		if !waitUntil(start, due, stop) {
			return
		}
		in := l.ins[i%len(l.ins)]
		var v snapshotView
		var err error
		if l.tr != nil {
			v, err = l.tr.read(ctx, l.read, snapshotURL(l.base, in.zone))
		} else {
			v, err = getSnapshot(ctx, l.read, snapshotURL(l.base, in.zone))
		}
		at := time.Since(start)
		s.mu.Lock()
		if err != nil {
			s.readFail++
			if len(s.errs) < 8 {
				s.errs = append(s.errs, "read: "+err.Error())
			}
			s.mu.Unlock()
			continue
		}
		s.readOK++
		s.reads = append(s.reads, ms(at-due))
		if age, ok := estimateAge(at, v.Refreshes, l.anchor[in.zone].ref, l.anchor[in.zone].round, s.roundSent[in.zone]); ok {
			s.ages = append(s.ages, ms(age))
		}
		s.mu.Unlock()
	}
}

// spinWindow is how long before a due instant waitUntil stops sleeping
// and spins: a timer wake-up on a busy VM lands up to a millisecond
// late, and open-loop latency counts from the due instant, so that
// lateness would be charged to the system under test.
const spinWindow = 300 * time.Microsecond

// waitUntil blocks until start+due, returning false if stop closes
// first (or is already closed).
func waitUntil(start time.Time, due time.Duration, stop <-chan struct{}) bool {
	if d := due - time.Since(start) - spinWindow; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return false
		}
	}
	for time.Since(start) < due {
		select {
		case <-stop:
			return false
		default:
			runtime.Gosched()
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

func zoneNames(ins []zoneInput) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.zone
	}
	return out
}

// deliveryErrors checks every client's server-side accounting: no
// reading may be rejected, deduplicated or dropped.
func (l *liveRun) deliveryErrors() error {
	var errs []error
	for i, c := range l.clients {
		st := c.Stats()
		if st.RejectedByServer+st.DuplicateByServer+st.Dropped != 0 {
			errs = append(errs, fmt.Errorf("client %d: %d rejected, %d duplicate, %d dropped", i, st.RejectedByServer, st.DuplicateByServer, st.Dropped))
		}
	}
	return errors.Join(errs...)
}

// retries sums the clients' retried attempts.
func (l *liveRun) retries() uint64 {
	var n uint64
	for _, c := range l.clients {
		n += c.Stats().Retries
	}
	return n
}
