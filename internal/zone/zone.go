// Package zone shards the fusion center into named, independently
// recoverable zones. Each zone owns one fusion.Engine and applies
// measurement batches from a single goroutine — the single-writer
// event loop — fed by a bounded mailbox, so zones never contend on
// one global engine lock and a burst in one zone backpressures only
// that zone. A Manager keeps the registry of live zones: lazy
// creation from a factory, a hard cap on the live count, and idle
// eviction that checkpoints a zone before releasing it, with the
// eviction-vs-late-measurement race resolved by recreation rather
// than loss.
package zone

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"radloc/internal/fusion"
)

// DefaultZone is the zone legacy single-zone clients land in: the
// unnamed routes (/measurements, /snapshot, ...) and unzoned pipe
// records alias it, so a pre-zone deployment keeps its exact behavior.
const DefaultZone = "default"

// ErrZoneClosed is returned by Submit when the zone's event loop has
// stopped accepting work (eviction or shutdown). The batch was NOT
// applied; Manager.Submit retries it against a recreated zone.
var ErrZoneClosed = errors.New("zone: closed")

// ErrMailboxFull is returned by Submit when the zone's bounded
// mailbox is at capacity — per-zone backpressure. The batch was NOT
// applied; the HTTP boundary maps this to 429 + Retry-After.
var ErrMailboxFull = errors.New("zone: mailbox full")

// Resources is everything a factory hands the manager for one zone.
type Resources struct {
	// Engine is the zone's fusion engine. Required.
	Engine *fusion.Engine
	// AfterBatch, when non-nil, runs on the zone's event loop after
	// each applied batch has been acknowledged and its due refresh
	// settled — the owner's checkpoint-cadence hook.
	AfterBatch func()
	// Close, when non-nil, runs exactly once on the event loop as the
	// zone shuts down, after the reorder gate's tail has been flushed —
	// the owner's final-checkpoint + release hook.
	Close func() error
	// Aux is an opaque owner handle carried alongside the engine (the
	// daemon keeps its durability state here so /zones/{z}/statez can
	// reach it).
	Aux any
}

// envelope is one mailbox entry: a batch and its reply slot.
type envelope struct {
	ctx   context.Context
	ms    []fusion.Meas
	reply chan outcome
}

// outcome is what the event loop posts back for one envelope.
type outcome struct {
	res fusion.BatchResult
	err error
}

// Zone is one shard: a fusion engine plus the single goroutine that
// applies batches to it in mailbox order. Submit is safe for
// concurrent use; reads go straight to the engine (itself
// concurrency-safe) via Engine.
type Zone struct {
	name string
	res  Resources
	mail chan envelope

	// sendMu makes "check closed, then send" atomic against close():
	// senders hold it shared, close() exclusively, so the mailbox is
	// never closed with a send in flight.
	sendMu sync.RWMutex
	closed bool

	done     chan struct{} // event loop exited; closeErr is set
	closeErr error

	lastUsed atomic.Int64 // unix nanos of the newest Submit
}

func newZone(name string, res Resources, mailbox int) *Zone {
	if mailbox < 1 {
		mailbox = 1
	}
	z := &Zone{
		name: name,
		res:  res,
		mail: make(chan envelope, mailbox),
		done: make(chan struct{}),
	}
	z.lastUsed.Store(time.Now().UnixNano())
	go z.loop()
	return z
}

// Name returns the zone's registry name.
func (z *Zone) Name() string { return z.name }

// Engine returns the zone's fusion engine for read paths (Snapshot,
// Sensors) and recovery-time maintenance. Writes during normal
// operation must go through Submit so the single-writer order holds.
func (z *Zone) Engine() *fusion.Engine { return z.res.Engine }

// Aux returns the owner handle the factory attached to this zone.
func (z *Zone) Aux() any { return z.res.Aux }

// IdleFor reports how long ago the zone last accepted a batch.
func (z *Zone) IdleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, z.lastUsed.Load()))
}

// loop is the zone's single writer: it applies mailbox batches in
// arrival order until the mailbox closes, then flushes the reorder
// gate's tail and runs the owner's Close hook. Per batch the order is
// apply → ack → refresh → AfterBatch: the ack leaves as soon as the
// batch is journaled and applied, and the round's estimate refresh
// (Engine.Settle) and the checkpoint cadence run after it, since
// neither changes what the ack reports.
func (z *Zone) loop() {
	defer close(z.done)
	for env := range z.mail {
		res, err := z.res.Engine.Submit(env.ctx, env.ms)
		env.reply <- outcome{res: res, err: err}
		z.res.Engine.Settle()
		if z.res.AfterBatch != nil {
			z.res.AfterBatch()
		}
	}
	// Shutdown: no further watermark advance will come, so release
	// every held round before the owner takes its final checkpoint.
	_, _ = z.res.Engine.FlushPending()
	if z.res.Close != nil {
		z.closeErr = z.res.Close()
	}
}

// Submit offers one batch to the zone's mailbox and waits for the
// event loop to apply it, returning the per-reading outcome counts.
// A full mailbox fails fast with ErrMailboxFull (backpressure), a
// closed zone with ErrZoneClosed (eviction race; retry via the
// manager). A ctx cancellation while waiting abandons the wait — the
// loop still applies the batch, since it was already admitted.
func (z *Zone) Submit(ctx context.Context, ms []fusion.Meas) (fusion.BatchResult, error) {
	env := envelope{ctx: ctx, ms: ms, reply: make(chan outcome, 1)}
	z.sendMu.RLock()
	if z.closed {
		z.sendMu.RUnlock()
		return fusion.BatchResult{}, ErrZoneClosed
	}
	select {
	case z.mail <- env:
		z.sendMu.RUnlock()
	default:
		z.sendMu.RUnlock()
		return fusion.BatchResult{}, ErrMailboxFull
	}
	z.lastUsed.Store(time.Now().UnixNano())
	select {
	case out := <-env.reply:
		return out.res, out.err
	case <-ctx.Done():
		return fusion.BatchResult{}, ctx.Err()
	}
}

// close stops the zone: new Submits fail with ErrZoneClosed, already
// admitted batches drain through the loop, the gate's tail is
// flushed, and the owner's Close hook (final checkpoint) runs. It
// blocks until the loop has exited and returns the hook's error.
// Idempotent.
func (z *Zone) close() error {
	z.sendMu.Lock()
	if !z.closed {
		z.closed = true
		close(z.mail)
	}
	z.sendMu.Unlock()
	<-z.done
	return z.closeErr
}
