package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The serving pipeline. Estimate, track and govern are one computation —
// rebuild full thermal maps from M sensor readings with the monitor's fixed
// linear operator — so one function serves all three:
//
//	page-in → decode → checkBatch/inject/compact → solve → drift → route step → encode
//
// Two seams carry the differences. The codec (JSON or application/x-emaps)
// owns the bytes; the route step owns the solve and what happens after
// drift scoring. DESIGN.md "Serving pipeline" has the codec × route-step
// table.

// routeStep selects what the pipeline does between decode and encode.
type routeStep uint8

const (
	// stepEstimate: operator GEMM.
	stepEstimate routeStep = iota
	// stepTrack: Kalman.StepBatch; drift is scored on the residual, since
	// smoothed maps are not the least-squares projection.
	stepTrack
	// stepGovern: the estimate, then the monitor's control step.
	stepGovern
)

// request is one decoded serving request, whichever codec read it.
type request struct {
	readings    [][]float64
	workers     int
	includeMaps bool
	config      *wire.GovernConfig // govern: nil streams through the installed governor
}

// reply is what a codec encodes.
type reply struct {
	quality     wire.Quality
	results     []wire.Summary       // estimate and track
	steps       int                  // track: tracker steps so far
	uncertainty float64              // track: posterior covariance trace
	govern      *wire.GovernResponse // govern
	governHead  []byte               // govern: the governor's pre-rendered JSON ladder segment
}

// scratch is one request's pooled working memory: the body, both codecs'
// decode storage, the decoded request, the estimated maps, the summaries,
// the govern decisions and the encoded reply. Everything aliasing it is
// dead once the reply is written, so a steady-state request allocates none
// of it — at tens of thousands of snapshots per second, not even the
// batch × N floats of maps.
type scratch struct {
	req     request
	rep     reply
	body    bytes.Buffer
	rows    readingsBuf
	frame   wire.ReadingsBuf
	cells   []float64
	maps    [][]float64
	results []wire.Summary
	govern  wire.GovernResponse
	levels  []int
	out     []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// mapsFor returns n rows of length cells over sc's reusable storage.
func (sc *scratch) mapsFor(n, cells int) [][]float64 {
	if cap(sc.cells) < n*cells {
		sc.cells = make([]float64, n*cells)
	}
	sc.maps = sc.maps[:0]
	for i := 0; i < n; i++ {
		sc.maps = append(sc.maps, sc.cells[i*cells:(i+1)*cells:(i+1)*cells])
	}
	return sc.maps
}

// summaries digests every map into sc.results.
func (sc *scratch) summaries(maps [][]float64, includeMaps bool) []wire.Summary {
	sc.results = sc.results[:0]
	for _, x := range maps {
		sc.results = append(sc.results, summarize(x, includeMaps))
	}
	return sc.results
}

// release returns sc to the pool, dropping its references to the request
// and to served maps.
func (sc *scratch) release() {
	sc.req, sc.rep = request{}, reply{}
	clear(sc.results)
	scratchPool.Put(sc)
}

// codecFor picks the request's codec from Content-Type. Track has no binary
// frame, so its bodies are always JSON.
func codecFor(r *http.Request, step routeStep) codec {
	if step != stepTrack && strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		return binaryCodec{}
	}
	return jsonCodec{}
}

// serving is the route handler for one step of the pipeline.
func serving(step routeStep) routeHandler {
	return onMonitor(func(s *server, w http.ResponseWriter, r *http.Request, e *monitorEntry) {
		s.serve(w, r, e, step)
	})
}

// serve is the serving pipeline. Errors are written as the JSON envelope
// at the stage that finds them; nothing after a failed stage runs.
func (s *server) serve(w http.ResponseWriter, r *http.Request, e *monitorEntry, step routeStep) {
	rs, ok := s.residentHTTP(w, e)
	if !ok {
		return
	}
	if step == stepTrack && rs.kf == nil {
		httpError(w, http.StatusBadRequest, "no_tracker", "monitor %s has no tracker (create with \"tracking\": true)", e.id)
		return
	}
	tr := traceOf(w)
	c := codecFor(r, step)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		httpError(w, http.StatusBadRequest, c.errCode(), "reading request: %v", err)
		return
	}
	req := &sc.req
	err := c.decode(sc.body.Bytes(), step, sc, req)
	tr.Mark(obs.StageDecode)
	if err != nil {
		httpError(w, http.StatusBadRequest, c.errCode(), "%v", err)
		return
	}

	// A govern config is validated here, ahead of any reading error, but
	// installed only once its batch has been estimated: a rejected request
	// leaves the installed governor untouched.
	var g *governorState
	if step == stepGovern {
		req.workers, req.includeMaps = 0, false // govern takes neither
		if g, ok = s.governorFor(w, e, req.config); !ok {
			return
		}
	}
	if !s.checkBatch(w, req.readings) {
		return
	}
	readings := req.readings
	if s.injector != nil {
		for _, row := range readings {
			s.injector.Apply(row)
		}
	}
	readings = rs.compactReadings(readings)

	var maps [][]float64
	if step == stepTrack {
		maps, err = rs.kf.StepBatch(readings)
	} else {
		maps = sc.mapsFor(len(readings), rs.mon.N())
		err = rs.mon.EstimateBatchInto(maps, readings, req.workers)
	}
	tr.Mark(obs.StageSolve)
	if err != nil {
		// Wrong-length vectors, NaN/Inf readings: client error, never a panic.
		verb := "estimate"
		if step == stepTrack {
			verb = "track"
		}
		httpError(w, http.StatusBadRequest, "bad_readings", "%s: %v", verb, err)
		return
	}
	scored := maps
	if step == stepTrack {
		scored = nil
	}
	rep := &sc.rep
	rep.quality = qualityFor(s.feedDrift(e, rs, readings, scored, tr))
	s.snapshots.Add(int64(len(maps)))
	e.snapshots.Add(int64(len(maps)))

	rep.results = sc.summaries(maps, req.includeMaps)
	switch step {
	case stepTrack:
		rep.steps, rep.uncertainty = rs.kf.Steps(), rs.kf.CovarianceTrace()
	case stepGovern:
		if req.config != nil {
			e.gov.Store(g)
		}
		rep.govern, rep.governHead = g.step(maps, rep.results, sc), g.jsonHead
		tr.Mark(obs.StageGovern)
	}

	// Everything after the last mark — summarize (estimate, track), render,
	// the body write — is the encode stage; Tail attributes it at Finish
	// with zero clock reads, so it shows in the flight recorder but not in
	// the already-sent Server-Timing header.
	tr.Tail(obs.StageEncode)
	out, err := c.encode(sc.out[:0], step, rep)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", "encode: %v", err)
		return
	}
	sc.out = out
	w.Header().Set("Content-Type", c.contentType())
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out); err != nil && s.logger != nil {
		s.logger.Error("write response", "err", err)
	}
}
