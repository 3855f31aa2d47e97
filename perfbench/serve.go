package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/store"
	"repro/internal/wire"
)

// batch is the snapshots per serving request of the estimate and fleet
// workloads.
const batch = 16

// warmup is the unmeasured traffic, in seconds, that precedes every
// measured window: connections open, pools fill and the daemon's first
// garbage collections after set-up happen before timing starts.
const warmup = 1.0

// conns is the load generator's connection count. The benchmark is sized
// for a two-CPU host, where more connections than CPUs would only queue.
const conns = 2

// monSpec is one monitor shape: subspace dimension and sensor count.
type monSpec struct{ k, m int }

// servingMix are the monitors the serving workloads install, all on one
// training configuration: the first create trains (cold), the rest hit the
// model cache (warm).
var servingMix = []monSpec{{8, 16}, {6, 12}, {12, 24}}

// served is one installed monitor.
type served struct {
	id      string
	spec    int // index into the workload's monitor mix
	sensors []int
}

// fleetZipf is the skew of the fleet workload's monitor choice (rank 0
// hottest).
const fleetZipf = 1.01

// serveArgs are the serving daemons' flags; fleet daemons are durable with
// a resident cap far below the fleet size.
func serveArgs(opt options, fleet bool, dir string) []string {
	args := []string{"-log-sample", "1000", "-adapt-after", "0"}
	if fleet {
		args = append(args, "-store-dir", filepath.Join(dir, "store"), "-max-monitors", strconv.Itoa(opt.size.maxResident))
	}
	return args
}

// runServe is the estimate (JSON, resident monitors) and fleet (binary,
// paged store) workload.
func runServe(r *run, fleet bool) error {
	opt := r.opt
	l, err := newLab(opt.size, heldSeed(opt.seed))
	if err != nil {
		return err
	}
	seed := trainSeed(0)
	// Replay training and placement before any daemon runs, so measurement
	// has the CPUs to itself.
	for _, s := range servingMix {
		if _, err := l.place(seed, s.k, s.m); err != nil {
			return err
		}
	}
	var mons []served
	var colds, warms []float64
	var storeDir string
	d, setupRSS, err := setupRuns(r, opt.size.setups, func(dir string) []string {
		storeDir = filepath.Join(dir, "store")
		return serveArgs(opt, fleet, dir)
	}, func(d *daemon, c *client) error {
		var cold float64
		var warm []float64
		var err error
		mons, cold, warm, err = installServing(r, l, c, seed, fleet, false, servingMix)
		colds = append(colds, cold)
		warms = append(warms, warm...)
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop()
	setCreates(r, colds, warms)

	ctype := "application/json"
	bodies := make([][][]byte, len(servingMix)) // [spec][chunk]
	chunks := l.held.T() / batch
	for s := range servingMix {
		sensors := mons[s].sensors
		for ch := 0; ch < chunks; ch++ {
			rows := l.readings(sensors, ch*batch, batch)
			var body []byte
			if fleet {
				body, err = wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: rows})
				if err != nil {
					return err
				}
			} else {
				body = appendJSONReadings(nil, rows)
			}
			bodies[s] = append(bodies[s], body)
		}
	}
	if fleet {
		ctype = wire.ContentType
	}
	c := newClient(d.base, conns)
	defer c.close()
	// Accuracy first, on the freshly installed monitors, so the figure
	// does not depend on what the traffic did to their drift detectors.
	acc, n, err := l.accuracy(r, c, mons[:len(servingMix)])
	if err != nil {
		return err
	}
	r.set("peak_err_c", acc)
	r.line("peak_err_c over %d validation snapshots (%d monitor layouts)", n, len(servingMix))
	gen := &serveGen{r: r, c: c, mons: mons, bodies: bodies, ctype: ctype, fleet: fleet}
	for i := range gen.seqs {
		gen.seqs[i] = newSequence(opt.seed, i, len(mons), chunks, fleet)
	}

	gen.phase(warmup, false)
	if !opt.trace {
		before, err := c.scrape()
		if err != nil {
			return err
		}
		ph := gen.phase(opt.seconds, false)
		after, err := c.scrape()
		if err != nil {
			return err
		}
		if err := setRSS(r, d, setupRSS); err != nil {
			return err
		}
		r.set("snapshots_per_s", ph.lat.rate(ph.wall, batch))
		r.set("latency_p50_ms", ph.lat.p50())
		r.line("latency distribution: %s; latency_p99_ms %.4f ms (median of %g-s slices' p99, per-layer)", ph.lat.profile(), ph.lat.p99(ph.wall), tailSlice)
		r.line("throughput: %d requests of %d snapshots in %.2f s over %d closed-loop connections: %.1f snapshots/s pooled, %.1f the median of %g-s slices (snapshots_per_s)",
			len(ph.lat.ms), batch, ph.wall.Seconds(), conns, float64(ph.snapshots)/ph.wall.Seconds(), ph.lat.rate(ph.wall, batch), tailSlice)
		r.line("paged in: %.4f of %d requests", delta(before, after, "emapsd_monitors_loaded_total")/float64(ph.requests), ph.requests)
	} else {
		if err := gen.tracedPhases(l, d, storeDir, seed); err != nil {
			return err
		}
	}
	if err := r.exclusions(c); err != nil {
		return err
	}
	return gen.checkSamples(l, seed)
}

// sequence is one connection's deterministic request stream: which monitor
// and which held-out chunk each request carries.
type sequence struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	mons int
	ch   int
	n    int // requests drawn so far
}

func newSequence(seed int64, conn, mons, chunks int, fleet bool) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), mons: mons, ch: chunks}
	if fleet {
		s.zipf = rand.NewZipf(s.rng, fleetZipf, 1, uint64(mons-1))
	}
	return s
}

func (s *sequence) next() (mon, chunk, idx int) {
	if s.zipf != nil {
		mon = int(s.zipf.Uint64())
	} else {
		mon = s.rng.Intn(s.mons)
	}
	chunk = s.rng.Intn(s.ch)
	idx = s.n
	s.n++
	return mon, chunk, idx
}

// kept is one response kept for the reference check.
type kept struct {
	mon, chunk int
	sums       []wire.Summary
}

// serveGen is the closed-loop generator of the estimate and fleet
// workloads.
type serveGen struct {
	r      *run
	c      *client
	mons   []served
	bodies [][][]byte
	ctype  string
	fleet  bool
	seqs   [conns]*sequence

	mu      sync.Mutex
	samples []kept
	specN   []int // requests per monitor spec, for the computed kernel counts
}

// phaseStats is one measured window.
type phaseStats struct {
	lat       latencies // untraced requests
	tlat      latencies // traced requests (alternating windows)
	pairs     []float64 // ms: traced − untraced latency of back-to-back requests on one connection
	requests  int
	snapshots int
	wall      time.Duration
	stages    map[string]float64 // Σ Server-Timing ms by stage (traced)
	stageSum  float64            // Σ over traced requests of their stage totals
}

// phase drives conns closed-loop connections for seconds and returns the
// merged statistics. With alternate set, each connection's odd requests
// are traced and its even ones not, so one window yields the per-layer
// stages and the paired tracing overhead.
func (g *serveGen) phase(seconds float64, alternate bool) *phaseStats {
	out := &phaseStats{stages: make(map[string]float64)}
	if g.specN == nil {
		g.specN = make([]int, len(servingMix))
	}
	quiet(func() {
		start := time.Now()
		end := start.Add(time.Duration(seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(seq *sequence) {
				defer wg.Done()
				local := &phaseStats{stages: make(map[string]float64)}
				var buf bytes.Buffer
				specN := make([]int, len(servingMix))
				plainIdx, plainMS := -1, 0.0 // the last untraced request
				for time.Now().Before(end) {
					mi, ch, idx := seq.next()
					m := g.mons[mi]
					traced := alternate && idx%2 == 1
					t := time.Now()
					rep, err := g.c.doTraced(&buf, traced, http.MethodPost, "/v1/monitors/"+m.id+"/estimate", g.ctype, g.bodies[m.spec][ch])
					lat := time.Since(t)
					// Every eighth reply is decoded in full and kept for the
					// reference check; the rest get the cheap gate, so the
					// generator's own decoding stays off the daemon's CPUs.
					full := idx%8 == 0
					var sums []wire.Summary
					if err == nil {
						if full {
							sums, err = decodeEstimate(g.r, rep, g.fleet)
						} else {
							err = checkEstimate(g.r, rep, g.fleet)
						}
					}
					g.r.op(err)
					if err != nil {
						continue
					}
					local.requests++
					local.snapshots += batch
					specN[m.spec]++
					if traced {
						local.tlat.add(t.Sub(start), lat)
						local.stageSum += timingSum(local.stages, rep.timing)
						if plainIdx == idx-1 {
							local.pairs = append(local.pairs, ms(lat)-plainMS)
						}
					} else {
						local.lat.add(t.Sub(start), lat)
						plainIdx, plainMS = idx, ms(lat)
					}
					if full {
						g.keep(mi, ch, sums)
					}
				}
				g.mu.Lock()
				out.lat.merge(&local.lat)
				out.tlat.merge(&local.tlat)
				out.pairs = append(out.pairs, local.pairs...)
				out.requests += local.requests
				out.snapshots += local.snapshots
				out.stageSum += local.stageSum
				for k, v := range local.stages {
					out.stages[k] += v
				}
				for s, n := range specN {
					g.specN[s] += n
				}
				g.mu.Unlock()
			}(g.seqs[i])
		}
		wg.Wait()
		out.wall = time.Since(start)
	})
	return out
}

// decodeEstimate parses an estimate reply of either protocol and enforces
// the per-response gate: 200 and one summary per snapshot. The drift
// verdict is counted, not gated (see run.quality).
func decodeEstimate(r *run, rep reply, binary bool) ([]wire.Summary, error) {
	if err := rep.expect(http.StatusOK); err != nil {
		return nil, err
	}
	var sums []wire.Summary
	quality := ""
	if binary {
		s, q, err := wire.DecodeEstimateResponse(rep.body)
		if err != nil {
			return nil, err
		}
		sums, quality = s, q.String()
	} else {
		var er estimateReply
		if err := json.Unmarshal(rep.body, &er); err != nil {
			return nil, err
		}
		sums, quality = er.Results, er.Quality
	}
	r.quality(quality)
	if len(sums) != batch {
		return nil, fmt.Errorf("estimate returned %d summaries for %d snapshots", len(sums), batch)
	}
	return sums, nil
}

// checkEstimate is the cheap per-reply gate: status 200, one summary per
// snapshot (a binary reply is decoded; a JSON reply's summaries are
// counted), and the drift verdict counted.
func checkEstimate(r *run, rep reply, binary bool) error {
	if binary {
		_, err := decodeEstimate(r, rep, true)
		return err
	}
	if err := rep.expect(http.StatusOK); err != nil {
		return err
	}
	rest, ok := bytes.CutPrefix(rep.body, []byte(`{"quality":"`))
	end := bytes.IndexByte(rest, '"')
	if !ok || end < 0 {
		return fmt.Errorf("estimate reply without a leading quality: %.80q", rep.body)
	}
	r.quality(string(rest[:end]))
	if n := bytes.Count(rest, []byte(`"max_c":`)); n != batch {
		return fmt.Errorf("estimate returned %d summaries for %d snapshots", n, batch)
	}
	return nil
}

// keep records a sampled response for the reference check.
func (g *serveGen) keep(mi, ch int, sums []wire.Summary) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.samples) < 400 {
		g.samples = append(g.samples, kept{mon: mi, chunk: ch, sums: sums})
	}
}

// checkSamples runs the reference gate over the kept responses.
func (g *serveGen) checkSamples(l *lab, seed int64) error {
	excluded := make(map[int][]int)
	for _, s := range g.samples {
		m := g.mons[s.mon]
		ex, ok := excluded[s.mon]
		if !ok {
			var err error
			if ex, err = g.c.excludedSensors(m.id); err != nil {
				return err
			}
			excluded[s.mon] = ex
		}
		if err := l.checkChunk(g.r, seed, servingMix[m.spec].k, m.sensors, ex, s.chunk, batch, s.sums); err != nil {
			return err
		}
	}
	g.r.line("correctness: %d sampled responses checked against the in-process reference (tolerance %g C)", len(g.samples), summaryTol)
	return nil
}

// tracedPhases is the --trace 1 measurement: one window alternating
// untraced and traced requests, whose Server-Timing, flight-recorder and
// counter deltas give the per-layer numbers, then the in-process kernel
// replays.
func (g *serveGen) tracedPhases(l *lab, d *daemon, storeDir string, seed int64) error {
	r := g.r
	before, err := g.c.scrape()
	if err != nil {
		return err
	}
	ph := g.phase(r.opt.seconds, true)
	after, err := g.c.scrape()
	if err != nil {
		return err
	}
	r.set("latency_p99_ms", ph.lat.p99(ph.wall))
	debug, ndebug, err := g.c.debugStageMeans("estimate")
	if err != nil {
		return err
	}
	n := float64(len(ph.tlat.ms))
	stage := func(name string) float64 { return ph.stages[name] / n }
	encode := debug["encode"]
	clientMean := mean(ph.tlat.ms)
	overhead := pairedOverhead(ph.pairs, ph.lat.ms)
	setServingLayers(r, ph.stages, ph.stageSum, n, encode, clientMean, before, after)
	r.set("store.page_in_share", delta(before, after, "emapsd_monitors_loaded_total")/float64(ph.requests))
	r.set("trace.overhead_share", overhead)

	lg := &ledger{title: r.opt.workload + " request",
		unit:     fmt.Sprintf("mean ms per request of %d snapshots, %d traced requests; encode from %d flight-recorder traces", batch, len(ph.tlat.ms), ndebug),
		overhead: fmt.Sprintf("median paired traced − untraced latency over median untraced, %d pairs", len(ph.pairs))}
	codec := "json"
	if g.fleet {
		codec = "binary"
	}
	for _, name := range sortedKeys(ph.stages) {
		label := "stage." + name
		if name == "decode" {
			label += " (" + codec + ")"
		}
		lg.add(label, stage(name))
	}
	lg.add("stage.encode ("+codec+")", encode)
	lg.print(r, clientMean, "http.unattributed", overhead)

	if err := g.replayKernels(l, seed); err != nil {
		return err
	}
	if g.fleet {
		return g.replayStore(storeDir)
	}
	return nil
}

// replayKernels times the serving kernels in process on the workload's
// shapes: the blocked GEMM, drift scoring and (fleet) the binary codec.
func (g *serveGen) replayKernels(l *lab, seed int64) error {
	r := g.r
	m := g.mons[0]
	spec := servingMix[m.spec]
	mon, err := l.monitor(seed, spec.k, m.sensors)
	if err != nil {
		return err
	}
	rows := l.readings(m.sensors, 0, batch)
	dst := make([][]float64, batch)
	for i := range dst {
		dst[i] = make([]float64, mon.N())
	}
	rec := mon.Reconstructor()
	gemm, err := timeIt(400, func() error { return rec.ReconstructBatchInto(dst, rows, 0) })
	if err != nil {
		return err
	}
	r.set("recon.gemm_us_per_snapshot", us(gemm)/batch)
	// Computed kernel counts for the request-weighted sensor count: the
	// operator (N×M) and bias (N) stream once per batch; each snapshot reads
	// M readings and writes N cells.
	nCells := float64(mon.N())
	mBar, total := 0.0, 0
	for s, c := range g.specN {
		mBar += float64(servingMix[s].m * c)
		total += c
	}
	mBar /= float64(total)
	flops := 2 * nCells * mBar
	bytes := 8*(nCells*mBar+nCells)/batch + 8*(mBar+nCells)
	r.set("recon.gemm_flops_per_snapshot", flops)
	r.set("recon.gemm_bytes_per_snapshot", bytes)
	r.set("recon.gemm_flops_per_byte", flops/bytes)
	r.line("computed (not measured): GEMM %.0f flop and %.0f B per snapshot at N=%d, mean M=%.2f, batch %d: %.3f flop/B",
		flops, bytes, mon.N(), mBar, batch, flops/bytes)

	t, err := l.train(seed)
	if err != nil {
		return err
	}
	cal, err := l.calibrate(mon, t.ds)
	if err != nil {
		return err
	}
	det, err := drift.NewDetector(cal, drift.Config{})
	if err != nil {
		return err
	}
	energy := make([]float64, len(m.sensors))
	observe, err := timeIt(400, func() error {
		rho, n, err := mon.ResidualStatsFromEstimates(energy, rows, dst)
		det.Observe(rho, energy, n)
		return err
	})
	if err != nil {
		return err
	}
	r.set("drift.observe_us", us(observe))

	if !g.fleet {
		return nil
	}
	body := g.bodies[m.spec][0]
	var scratch wire.ReadingsBuf
	dec, err := timeIt(2000, func() error {
		_, err := wire.DecodeEstimateRequest(body, &scratch)
		return err
	})
	if err != nil {
		return err
	}
	sums := make([]wire.Summary, batch)
	for i := range sums {
		sums[i] = summarize(dst[i])
	}
	var out []byte
	enc, _ := timeIt(2000, func() error {
		out = wire.AppendEstimateResponse(out[:0], sums, wire.QualityOK)
		return nil
	})
	r.set("wire.decode_us", us(dec))
	r.set("wire.encode_us", us(enc))
	return nil
}

// replayStore times page-in's work in process on the daemon's own records:
// read and decode the file, then rebuild the monitor from it.
func (g *serveGen) replayStore(dir string) error {
	r := g.r
	files, err := filepath.Glob(filepath.Join(dir, "mon-*"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) > 8 {
		files = files[:8]
	}
	var times, sizes []float64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size()))
		took, err := timeIt(5, func() error {
			rec, err := store.LoadFile(f)
			if err != nil {
				return err
			}
			_, err = core.RestoreMonitorWithOperator(rec.Basis, rec.K, rec.Sensors, rec.QR, rec.Op, rec.OpBias)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay page-in of %s: %w", filepath.Base(f), err)
		}
		times = append(times, ms(took))
	}
	if len(files) == 0 {
		return fmt.Errorf("no monitor records in %s", dir)
	}
	r.set("store.load_ms", median(times))
	r.set("store.page_in_bytes_per_record", mean(sizes))
	r.line("computed (not measured): page-in reads %.0f B per record (mean over %d records)", mean(sizes), len(sizes))
	return nil
}
