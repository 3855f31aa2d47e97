package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The request coalescer turns concurrent small estimate requests against one
// monitor into shared GEMMs. The precomputed reconstruction operator makes
// batching nearly free on the compute side — one blocked N×M matvec per
// snapshot regardless of who asked — so the only cost of merging requests is
// a bounded wait for peers. Each request queues its readings and blocks; the
// queue flushes when it accumulates coalesceMax snapshots (immediately, in
// the submitting request's goroutine) or when the oldest queued request has
// waited a full coalesce window. One core.Monitor.EstimateBatch call then
// serves every queued request.
//
// Failure isolation: EstimateBatch rejects the whole concatenated batch when
// any snapshot is malformed (NaN readings, wrong length). One client's bad
// snapshot must not fail its neighbors, so on a batch error the flush falls
// back to one EstimateBatch per queued request — each request gets exactly
// the error (or maps) its own readings earn.

// coalescer batches estimate and govern requests for one monitor.
type coalescer struct {
	mon     *core.Monitor
	window  time.Duration
	max     int
	metrics *metricsSet

	mu      sync.Mutex
	pending []*coalesceCall
	queued  int         // snapshots across pending
	timer   *time.Timer // armed while pending is non-empty and below max
}

// coalesceCall is one blocked request: its readings in, its maps (or its own
// error) out, published before done closes. flushStart/flushEnd bracket the
// shared solve, so each blocked request can attribute its own wait
// (enqueue → flushStart) and its share of the GEMM (flushStart → flushEnd)
// to the right trace stages.
type coalesceCall struct {
	readings   [][]float64
	maps       [][]float64
	err        error
	flushStart time.Time
	flushEnd   time.Time
	done       chan struct{}
}

func newCoalescer(mon *core.Monitor, window time.Duration, max int, m *metricsSet) *coalescer {
	if max < 1 {
		max = 1
	}
	return &coalescer{mon: mon, window: window, max: max, metrics: m}
}

// estimate queues readings and blocks until a flush (triggered by this call,
// a peer, or the window timer) serves them, recording the queue wait and the
// shared solve as trace stages (tr may be nil).
func (c *coalescer) estimate(readings [][]float64, tr *obs.Trace) ([][]float64, error) {
	call := &coalesceCall{readings: readings, done: make(chan struct{})}
	enq := tr.Begin()
	c.mu.Lock()
	c.pending = append(c.pending, call)
	c.queued += len(readings)
	if c.queued >= c.max {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.flush(batch)
	} else {
		if c.timer == nil {
			c.timer = time.AfterFunc(c.window, c.flushOnTimer)
		}
		c.mu.Unlock()
	}
	<-call.done
	tr.Between(obs.StageCoalesceWait, enq, call.flushStart)
	tr.Between(obs.StageSolve, call.flushStart, call.flushEnd)
	return call.maps, call.err
}

// flushOnTimer drains whatever accumulated during the window.
func (c *coalescer) flushOnTimer() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	c.flush(batch)
}

// takeLocked claims the queue and disarms the timer. Callers hold c.mu. A
// stale timer firing after a size-triggered flush takes an empty queue and
// flushes nothing.
func (c *coalescer) takeLocked() []*coalesceCall {
	batch := c.pending
	c.pending = nil
	c.queued = 0
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// flush serves a claimed queue with one batched GEMM, falling back to
// per-request batches if the merged batch is rejected.
func (c *coalescer) flush(batch []*coalesceCall) {
	if len(batch) == 0 {
		return
	}
	c.metrics.coalesceFlushes.Add(1)
	c.metrics.coalesceRequests.Add(int64(len(batch)))
	start := time.Now()
	if len(batch) == 1 {
		one := batch[0]
		one.maps, one.err = c.mon.EstimateBatch(one.readings, 0)
		one.flushStart, one.flushEnd = start, time.Now()
		close(one.done)
		return
	}
	total := 0
	for _, call := range batch {
		total += len(call.readings)
	}
	all := make([][]float64, 0, total)
	for _, call := range batch {
		all = append(all, call.readings...)
	}
	maps, err := c.mon.EstimateBatch(all, 0)
	if err != nil {
		// Some snapshot in the merged batch is malformed. Re-run per request
		// so only the offending client sees the error.
		for _, call := range batch {
			call.maps, call.err = c.mon.EstimateBatch(call.readings, 0)
			call.flushStart, call.flushEnd = start, time.Now()
			close(call.done)
		}
		return
	}
	end := time.Now()
	off := 0
	for _, call := range batch {
		call.maps = maps[off : off+len(call.readings)]
		off += len(call.readings)
		call.flushStart, call.flushEnd = start, end
		close(call.done)
	}
}

// coalescerFor returns the resident state's coalescer, creating it on first
// use. Only called when coalescing is enabled (-coalesce-window > 0). The
// coalescer belongs to the resident state, not the entry: it captures the
// paged-in monitor, so eviction drops the two together and a re-page-in
// builds a fresh pair.
func (s *server) coalescerFor(rs *residentState) *coalescer {
	rs.coalOnce.Do(func() {
		rs.coal = newCoalescer(rs.mon, s.coalesceWindow, s.coalesceMax, s.metrics)
	})
	return rs.coal
}
