package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/power"
	"repro/internal/store"
	"repro/internal/thermal"
	"repro/internal/wire"
)

// createMix is one round of the create workload: a cold create that
// trains a fresh configuration, then warm creates with other K/M on the
// same configuration (model-cache hits that still place, fold, calibrate
// and persist).
var createMix = []monSpec{{8, 16}, {6, 12}, {12, 24}, {4, 8}}

// validateRequests is how many batch-16 JSON estimates of held-out maps
// each new monitor serves right after its create: the first traffic a
// freshly designed monitor sees, and the create workload's latency sample.
const validateRequests = 72

// validateWarmup of those are not timed: they overlap the daemon's
// collection of the create's garbage (placement's N×N scratch), whose
// timing against the burst differs from run to run.
const validateWarmup = 8

// minRounds is how many rounds a run always completes; peak_err_c and
// daemon_rss_mb are read over exactly these, so they cover the same work on
// every run.
const minRounds = 2

// validation is the validation traffic of one kind of round (untraced or
// traced), pooled and by monitor layout.
type validation struct {
	lat      latencies
	layout   []layoutTraffic // indexed like createMix
	wall     time.Duration
	stages   map[string]float64
	stageSum float64
}

// layoutTraffic is the validation traffic of one layout of createMix.
type layoutTraffic struct{ lat latencies }

// rate is the snapshots/s of one connection serving a validation mix with
// equal requests on every layout: batch over the mean, across layouts, of
// each layout's interquartile-mean latency. The layouts' latencies differ
// with M, so a statistic pooled over all requests would fall at the edge
// between two layouts' clusters, not at the centre of either; and the
// interquartile mean is not moved by the few requests that meet the
// daemon's collection of a create's garbage, which fall in different
// layouts' traffic from run to run.
func (v *validation) rate() float64 {
	sum := 0.0
	for _, l := range v.layout {
		sum += interquartileMean(l.lat.ms)
	}
	return batch * 1000 * float64(len(v.layout)) / sum
}

// p50 is the mean over layouts of each layout's median latency, for the
// same reason.
func (v *validation) p50() float64 {
	sum := 0.0
	for _, l := range v.layout {
		sum += l.lat.p50()
	}
	return sum / float64(len(v.layout))
}

func createArgs(dir string) []string {
	return []string{"-log-sample", "1000", "-adapt-after", "0", "-store-dir", filepath.Join(dir, "store")}
}

// madeMonitor is one create of the measured loop.
type madeMonitor struct {
	seed int64
	spec monSpec
	resp createResponse
	wall float64 // s
}

func runCreate(r *run) error {
	opt := r.opt
	l, err := newLab(opt.size, heldSeed(opt.seed))
	if err != nil {
		return err
	}
	d, _, err := setupRuns(r, opt.size.createSetups, createArgs, func(*daemon, *client) error { return nil })
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base, 1)
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return err
	}
	chunks := l.held.T() / batch
	var made []madeMonitor
	var samples []kept
	var rounds [2]validation // [untraced, traced] validation traffic
	for i := range rounds {
		rounds[i].layout = make([]layoutTraffic, len(createMix))
	}
	rounds[1].stages = make(map[string]float64)
	rss := 0.0
	accSum, accN := 0.0, 0
	end := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(end); round++ {
		seed := trainSeed(round)
		// A traced run alternates untraced and traced rounds, for the
		// tracing-overhead share.
		traced := opt.trace && round%2 == 1
		c.traced.Store(traced)
		ph := &rounds[0]
		if traced {
			ph = &rounds[1]
		}
		for j, s := range createMix {
			cr, wall, err := c.create(l.request(seed, s.k, s.m))
			r.op(err)
			if err != nil {
				return err
			}
			made = append(made, madeMonitor{seed: seed, spec: s, resp: cr, wall: wall.Seconds()})
			if round < minRounds {
				// Accuracy of the fresh monitor, before any traffic reaches
				// its drift detector.
				acc, n, err := l.accuracy(r, c, []served{{id: cr.ID, sensors: cr.Sensors}})
				if err != nil {
					return err
				}
				accSum += acc * float64(n)
				accN += n
			}
			for q := 0; q < validateRequests; q++ {
				ch := (round + j*validateRequests + q) % chunks
				body := appendJSONReadings(nil, l.readings(cr.Sensors, ch*batch, batch))
				t := time.Now()
				rep, err := c.do(http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", "application/json", body)
				took := time.Since(t)
				var sums []wire.Summary
				if err == nil {
					sums, err = decodeEstimate(r, rep, false)
				}
				r.op(err)
				if err != nil {
					continue
				}
				if q >= validateWarmup {
					ph.lat.add(ph.wall, took)
					ph.layout[j].lat.add(ph.wall, took)
					ph.wall += took
					if traced {
						ph.stageSum += timingSum(ph.stages, rep.timing)
					}
				}
				if q == 0 {
					samples = append(samples, kept{mon: len(made) - 1, chunk: ch, sums: sums})
				}
			}
		}
		if round == minRounds-1 {
			if rss, err = d.peakRSSMB(); err != nil {
				return err
			}
		}
	}
	after, err := c.scrape()
	if err != nil {
		return err
	}
	var colds, warms []float64
	for _, m := range made {
		if m.spec == createMix[0] {
			colds = append(colds, m.wall)
		} else {
			warms = append(warms, m.wall)
		}
	}
	r.line("creates: %d cold and %d warm in %d rounds; %d validation requests of %d snapshots",
		len(colds), len(warms), len(made)/len(createMix), len(rounds[0].lat.ms)+len(rounds[1].lat.ms), batch)
	hits := delta(before, after, "emapsd_model_cache_hits_total")
	misses := delta(before, after, "emapsd_model_cache_misses_total")
	r.line("model cache: %.0f hits, %.0f misses", hits, misses)
	if !opt.trace {
		val := rounds[0]
		setCreates(r, colds, warms)
		r.set("snapshots_per_s", val.rate())
		r.set("latency_p50_ms", val.p50())
		r.line("validation latency distribution: %s", val.lat.profile())
		for j, s := range createMix {
			r.line("validation K=%d M=%d: interquartile-mean latency %.3f ms; %s", s.k, s.m, interquartileMean(val.layout[j].lat.ms), val.layout[j].lat.profile())
		}
		r.set("daemon_rss_mb", rss)
		r.set("peak_err_c", accSum/float64(accN))
		r.line("peak_err_c over %d validation snapshots (the first %d rounds' monitors)", accN, minRounds)
	}

	if err := r.exclusions(c); err != nil {
		return err
	}
	// Correctness: every create placed what the replay places; sampled
	// validation replies match the in-process reference.
	for _, m := range made {
		p, err := l.place(m.seed, m.spec.k, m.spec.m)
		if err != nil {
			return err
		}
		checkCreate(r, m.resp, p.sensors, l.grid.N())
	}
	for _, s := range samples {
		m := made[s.mon]
		ex, err := c.excludedSensors(m.resp.ID)
		if err != nil {
			return err
		}
		if err := l.checkChunk(r, m.seed, m.spec.k, m.resp.Sensors, ex, s.chunk, batch, s.sums); err != nil {
			return err
		}
	}
	r.line("correctness: %d creates replayed in process; %d validation replies checked against the reference (tolerance %g C)", len(made), len(samples), summaryTol)
	if !opt.trace {
		return nil
	}

	// Per-layer: in-process replays of the same configurations through
	// each layer's exported functions.
	r.set("emapsd.model_cache_hit_ratio", hits/(hits+misses))
	tr := rounds[1]
	debug, _, err := c.debugStageMeans("estimate")
	if err != nil {
		return err
	}
	setServingLayers(r, tr.stages, tr.stageSum, float64(len(tr.lat.ms)), debug["encode"], mean(tr.lat.ms), before, after)
	r.set("latency_p99_ms", rounds[0].lat.p99(0))
	r.set("trace.overhead_share", 1-tr.rate()/rounds[0].rate())
	return replayCreate(r, l, made, colds, warms)
}

// createLayers are the layers one create runs, in order; a warm create
// skips the first two.
var createLayers = []string{"dataset.generate", "core.train", "place.greedy", "recon.fold", "drift.calibrate", "store.persist"}

// replayCreate times each create layer in process on the run's own
// configurations and prints the cold and warm ledgers.
func replayCreate(r *run, l *lab, made []madeMonitor, colds, warms []float64) error {
	// secs[layer] holds one sample per create that ran the layer; the cold
	// and warm ledgers take medians over their own creates.
	cold := make(map[string][]float64)
	warm := make(map[string][]float64)
	var sizes []float64
	for i, m := range made {
		isCold := m.spec == createMix[0]
		into := warm
		if isCold {
			into = cold
		}
		t, err := l.train(m.seed)
		if err != nil {
			return err
		}
		if isCold {
			into["dataset.generate"] = append(into["dataset.generate"], t.generate.Seconds())
			into["core.train"] = append(into["core.train"], t.train.Seconds())
		}
		p, err := l.place(m.seed, m.spec.k, m.spec.m)
		if err != nil {
			return err
		}
		into["place.greedy"] = append(into["place.greedy"], p.took.Seconds())
		start := time.Now()
		mon, err := t.model.NewMonitor(m.spec.k, p.sensors)
		if err != nil {
			return err
		}
		into["recon.fold"] = append(into["recon.fold"], since(start))
		start = time.Now()
		c, err := l.calibrate(mon, t.ds)
		if err != nil {
			return err
		}
		into["drift.calibrate"] = append(into["drift.calibrate"], since(start))
		rec := mon.Reconstructor()
		op, bias := rec.Operator()
		record := &store.Record{
			Meta: store.Meta{Floorplan: l.fp.Name, GridW: l.grid.W, GridH: l.grid.H,
				Snapshots: l.size.trainSnaps, Seed: m.seed, KMax: kmax, Solver: "direct",
				LoadCoupling: loadCoupling, MonitorID: m.resp.ID},
			Basis: t.model.Basis, Floorplan: l.fp, Energy: t.model.Energy,
			Sensors: rec.Sensors(), K: rec.K(), QR: rec.QR(), Op: op, OpBias: bias,
			Drift: &store.DriftInfo{CalibMean: c.Mean, CalibStd: c.Std, SensorMean: c.SensorMean, SensorStd: c.SensorStd},
		}
		path := filepath.Join(r.opt.work, fmt.Sprintf("replay-%d.emon", i))
		start = time.Now()
		if err := store.SaveFile(path, record); err != nil {
			return err
		}
		into["store.persist"] = append(into["store.persist"], since(start))
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size()))
	}
	stepUS, err := replayThermalStep(l)
	if err != nil {
		return err
	}
	all := func(layer string) []float64 { return append(append([]float64(nil), cold[layer]...), warm[layer]...) }
	r.set("dataset.generate_s", median(cold["dataset.generate"]))
	r.set("thermal.step_us", stepUS)
	r.set("core.train_s", median(cold["core.train"]))
	r.set("place.greedy_ms", 1000*median(all("place.greedy")))
	r.set("recon.fold_ms", 1000*median(all("recon.fold")))
	r.set("drift.calibrate_ms", 1000*median(all("drift.calibrate")))
	r.set("store.persist_ms", 1000*median(all("store.persist")))
	r.set("store.record_bytes", mean(sizes))

	overhead := r.values["trace.overhead_share"]
	for _, side := range []struct {
		name   string
		walls  []float64
		layers map[string][]float64
	}{{"cold", colds, cold}, {"warm", warms, warm}} {
		lg := &ledger{title: side.name + " create", unit: fmt.Sprintf("s, medians over %d %s creates and their in-process replays", len(side.walls), side.name),
			overhead: "1 − traced over untraced validation snapshots/s, rounds alternating"}
		sum := 0.0
		for _, layer := range createLayers {
			if xs := side.layers[layer]; len(xs) > 0 {
				lg.add(layer, median(xs))
				sum += median(xs)
			}
		}
		total := median(side.walls)
		if side.name == "cold" {
			r.set("create.unattributed_s", total-sum)
		}
		lg.print(r, total, "create.unattributed", overhead)
		overhead = math.NaN() // printed with the first ledger only
	}
	return nil
}

// replayThermalStep times one transient step of the training simulation at
// the workload's grid: the inner loop of dataset generation.
func replayThermalStep(l *lab) (float64, error) {
	model := thermal.NewModel(l.grid, thermal.Config{})
	tr := model.NewTransient()
	raster := l.fp.Rasterize(l.grid)
	gen := power.NewGenerator(l.fp, l.pcfg)
	cellP := make([]float64, l.grid.N())
	power.SpreadToCellsInto(cellP, raster, gen.Step())
	if err := tr.SetSteadyState(cellP); err != nil {
		return 0, err
	}
	dst := make([]float64, l.grid.N())
	step, err := timeIt(200, func() error { return tr.StepInto(dst, cellP) })
	return us(step), err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
