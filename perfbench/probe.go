package main

import (
	"sync"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/perf"
)

// batchInfo is what the recycle wrapper learns about a host batch on
// its way from the dispatcher to the engine.
type batchInfo struct {
	intake time.Time // replay epochs: when the batch's epoch was asked for
	valid  int
}

// engineProbe sits on the two seams around one engine: the recycle func
// handed to core.NewDispatcher (called once per batch, just before the
// batch is handed to the engine's Trans Queue) and the engine's Emit
// callback (once per predicted image). The recycle side passes each
// batch's size and intake time to the Emit side through a FIFO — one
// solver per engine keeps them in order.
type engineProbe struct {
	sk    *sink
	inner func(*core.Batch) error
	fifo  chan batchInfo
	tr    *tracer
	batch int
	paced bool // the engine models GoogLeNet compute time

	// Cache replay publishes whole batches without passing items through
	// a collector, so a replayed image's intake is the start of its
	// epoch's ReplayCache call: the latest of epochs at or before the
	// batch's publish. Decoded images keep their collector stamp.
	epochMu sync.Mutex
	epochs  []time.Time

	// Recycle side (dispatcher goroutine).
	lastRecycle time.Time
	interval    timer
	recycleN    int

	// Emit side (engine goroutine).
	cur     batchInfo
	left    int
	first   time.Time
	lastEnd time.Time
	began   time.Time
	wait    time.Duration
	batches int
	images  int
}

func newEngineProbe(sk *sink, inner func(*core.Batch) error, tr *tracer, batch int, paced bool) *engineProbe {
	return &engineProbe{sk: sk, inner: inner, fifo: make(chan batchInfo, 64), tr: tr, batch: batch, paced: paced}
}

// replayStarted records the start of a replay epoch.
func (p *engineProbe) replayStarted(t time.Time) {
	p.epochMu.Lock()
	p.epochs = append(p.epochs, t)
	p.epochMu.Unlock()
}

// replayIntake returns the start of the replay epoch that published a
// batch at t (zero when no replay epoch had started).
func (p *engineProbe) replayIntake(t time.Time) time.Time {
	p.epochMu.Lock()
	defer p.epochMu.Unlock()
	for i := len(p.epochs) - 1; i >= 0; i-- {
		if !p.epochs[i].After(t) {
			return p.epochs[i]
		}
	}
	return time.Time{}
}

// recycle wraps the producer's RecycleBatch.
func (p *engineProbe) recycle(b *core.Batch) error {
	info := batchInfo{intake: p.replayIntake(b.AssembledAt), valid: b.ValidCount()}
	seq := int64(b.Seq)
	t0 := time.Now()
	err := p.inner(b)
	if p.tr != nil {
		t1 := time.Now()
		p.tr.recycle.add(t1.Sub(t0))
		p.tr.record("core.recycle", seq, t0, t1)
		if !p.lastRecycle.IsZero() {
			p.interval.add(t0.Sub(p.lastRecycle))
		}
		p.lastRecycle = t0
		p.recycleN++
	}
	if info.valid > 0 {
		p.fifo <- info
	}
	return err
}

// emit is the engine's Emit callback.
func (p *engineProbe) emit(pr engine.Prediction) {
	now := time.Now()
	if p.left == 0 {
		p.cur = <-p.fifo
		p.left = p.cur.valid
		if !p.lastEnd.IsZero() {
			// The gap since the previous batch's last prediction is the
			// engine's wait for data plus its modelled compute.
			gap := now.Sub(p.lastEnd)
			if p.paced {
				gap -= time.Duration(perf.GoogLeNet.BatchSeconds(p.cur.valid) * float64(time.Second))
			}
			if gap > 0 {
				p.wait += gap
			}
		} else {
			p.first = now
		}
		p.began = now
		p.batches++
	}
	p.left--
	p.images++
	lat := pr.Latency
	if !p.cur.intake.IsZero() {
		lat = now.Sub(p.cur.intake)
	}
	p.sk.record(pr, now, lat)
	if p.left == 0 {
		p.lastEnd = now
		if p.tr != nil {
			p.tr.record("engine.batch", -1, p.began, now)
		}
	}
}
