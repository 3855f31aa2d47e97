package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/recon"
	"repro/internal/wire"
)

// kmax is the basis size every benchmark monitor is trained with.
const kmax = 12

// loadCoupling is the core-utilization correlation emapsd generates every
// training ensemble with; the replay must match it to reproduce training
// bit for bit.
const loadCoupling = 0.75

// lab is the in-process side of the benchmark: the held-out simulation the
// readings come from, and replays of the daemon's training configurations
// through the layers' exported functions. The replays are the correctness
// references and the per-layer timings.
type lab struct {
	size   sizes
	fp     *floorplan.Floorplan
	grid   floorplan.Grid
	pcfg   power.Config
	held   *dataset.Dataset // the traffic's held-out maps
	valid  *dataset.Dataset // the fixed validation maps of peak_err_c
	truth  []float64        // hottest-cell °C of each validation map
	models map[int64]*trained
	places map[placeKey]placement
	refs   map[refKey]reference
}

// reference is one held-out chunk estimated in process: the full maps and
// their summaries.
type reference struct {
	maps [][]float64
	sums []wire.Summary
}

// trained is one replayed training configuration with its layer timings.
type trained struct {
	ds       *dataset.Dataset
	model    *core.Model
	generate time.Duration
	train    time.Duration
}

type placeKey struct {
	seed int64
	k, m int
}

type placement struct {
	sensors []int
	took    time.Duration
}

type refKey struct {
	seed    int64
	k       int
	sensors string
	chunk   int
}

// newLab simulates the traffic's held-out maps under heldSeed and the
// validation maps under validSeed.
func newLab(size sizes, heldSeed int64) (*lab, error) {
	fp, err := floorplan.Named("t1")
	if err != nil {
		return nil, err
	}
	l := &lab{size: size, fp: fp,
		grid:   floorplan.Grid{W: size.gridW, H: size.gridH},
		pcfg:   power.ConfigFor(fp, loadCoupling),
		models: make(map[int64]*trained),
		places: make(map[placeKey]placement),
		refs:   make(map[refKey]reference),
	}
	l.held, err = dataset.Generate(fp, dataset.GenConfig{
		Grid: l.grid, Snapshots: size.heldOut, Seed: heldSeed, Power: l.pcfg})
	if err != nil {
		return nil, fmt.Errorf("held-out simulation: %w", err)
	}
	l.valid, err = dataset.Generate(fp, dataset.GenConfig{
		Grid: l.grid, Snapshots: size.heldOut, Seed: validSeed, Power: l.pcfg})
	if err != nil {
		return nil, fmt.Errorf("validation simulation: %w", err)
	}
	l.truth = make([]float64, l.valid.T())
	for i := range l.truth {
		l.truth[i] = maxOf(l.valid.Map(i))
	}
	return l, nil
}

// request is the create body of training configuration seed.
func (l *lab) request(seed int64, k, m int) createRequest {
	return createRequest{GridW: l.grid.W, GridH: l.grid.H, Snapshots: l.size.trainSnaps,
		Seed: seed, KMax: kmax, K: k, M: m}
}

// train replays the daemon's cold create up to the model: simulate the
// training ensemble, then train the basis. Memoized per seed.
func (l *lab) train(seed int64) (*trained, error) {
	if t := l.models[seed]; t != nil {
		return t, nil
	}
	t := &trained{}
	start := time.Now()
	var err error
	t.ds, err = dataset.Generate(l.fp, dataset.GenConfig{
		Grid: l.grid, Snapshots: l.size.trainSnaps, Seed: seed, Power: l.pcfg})
	if err != nil {
		return nil, fmt.Errorf("replay generate: %w", err)
	}
	t.generate = time.Since(start)
	start = time.Now()
	t.model, err = core.Train(t.ds, core.TrainOptions{KMax: kmax, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("replay train: %w", err)
	}
	t.train = time.Since(start)
	l.models[seed] = t
	return t, nil
}

// place replays greedy placement of m sensors for a K-dimensional monitor.
func (l *lab) place(seed int64, k, m int) (placement, error) {
	key := placeKey{seed, k, m}
	if p, ok := l.places[key]; ok {
		return p, nil
	}
	t, err := l.train(seed)
	if err != nil {
		return placement{}, err
	}
	start := time.Now()
	s, err := t.model.PlaceSensors(m, core.PlaceOptions{K: k, Allocator: &place.Greedy{}})
	if err != nil {
		return placement{}, fmt.Errorf("replay place: %w", err)
	}
	p := placement{sensors: s, took: time.Since(start)}
	l.places[key] = p
	return p, nil
}

// monitor folds a replayed monitor, as the daemon does at create.
func (l *lab) monitor(seed int64, k int, sensors []int) (*core.Monitor, error) {
	t, err := l.train(seed)
	if err != nil {
		return nil, err
	}
	return t.model.NewMonitor(k, sensors)
}

// readings samples held-out maps [from, from+n) (wrapping) at the sensors.
func (l *lab) readings(sensors []int, from, n int) [][]float64 {
	return sample(l.held, sensors, from, n)
}

// sample reads maps [from, from+n) (wrapping) of ds at the sensors.
func sample(ds *dataset.Dataset, sensors []int, from, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		x := ds.Map((from + i) % ds.T())
		row := make([]float64, len(sensors))
		for j, s := range sensors {
			row[j] = x[s]
		}
		rows[i] = row
	}
	return rows
}

// reference is the in-process f64 estimate of held-out chunk [chunk*batch,
// +batch) through the QR-solve arm, which shares no code with the daemon's
// folded-operator GEMM past the basis itself.
func (l *lab) reference(seed int64, k int, sensors []int, chunk, batch int) (reference, error) {
	key := refKey{seed, k, fmt.Sprint(sensors), chunk}
	if ref, ok := l.refs[key]; ok {
		return ref, nil
	}
	mon, err := l.monitor(seed, k, sensors)
	if err != nil {
		return reference{}, err
	}
	maps, err := mon.EstimateBatchArm(l.readings(sensors, chunk*batch, batch), 1, recon.ArmQR)
	if err != nil {
		return reference{}, err
	}
	ref := reference{maps: maps, sums: make([]wire.Summary, len(maps))}
	for i, x := range maps {
		ref.sums[i] = summarize(x)
	}
	l.refs[key] = ref
	return ref, nil
}

// checkChunk runs the correctness gate on one served chunk: every summary
// must match the in-process reference of a sensor set the monitor served
// with — its created layout, or that layout minus sensors the daemon
// reports having excluded as faulty since (see servingSets).
func (l *lab) checkChunk(r *run, seed int64, k int, sensors, excluded []int, chunk, batch int, got []wire.Summary) error {
	first := ""
	for i, set := range servingSets(sensors, excluded) {
		ref, err := l.reference(seed, k, set, chunk, batch)
		if err != nil {
			// An intermediate subset no monitor can be built on (too few
			// sensors, or rank deficient) was never served: the daemon
			// could not have swapped to it either.
			if i > 0 {
				continue
			}
			return err
		}
		bad := ""
		if len(got) != len(ref.sums) {
			bad = fmt.Sprintf("%d summaries, want %d", len(got), len(ref.sums))
		}
		for i := 0; bad == "" && i < len(got); i++ {
			if m := summaryMismatch(got[i], ref.sums[i], ref.maps[i]); m != "" {
				bad = fmt.Sprintf("snapshot %d: %s", i, m)
			}
		}
		if bad == "" {
			r.check(true, "")
			return nil
		}
		if first == "" {
			first = bad
		}
	}
	r.check(false, "monitor k=%d m=%d chunk %d: %s", k, len(sensors), chunk, first)
	return nil
}

// servingSets lists the sensor sets a monitor may have served a reply
// with: its created layout first, then the layout minus each non-empty
// subset of the sensors the daemon excluded as faulty (the exclusion order
// is not reported, so every intermediate set is a candidate).
func servingSets(sensors, excluded []int) [][]int {
	var sets [][]int
	for mask := 0; mask < 1<<len(excluded); mask++ {
		drop := map[int]bool{}
		for i, e := range excluded {
			if mask&(1<<i) != 0 {
				drop[e] = true
			}
		}
		set := make([]int, 0, len(sensors))
		for _, s := range sensors {
			if !drop[s] {
				set = append(set, s)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// calibrate replays the daemon's drift calibration of a new monitor: the
// normalized residual of every training map, then drift.Calibrate.
func (l *lab) calibrate(mon *core.Monitor, ds *dataset.Dataset) (drift.Calibration, error) {
	rec := mon.Reconstructor()
	m := len(mon.Sensors())
	rhos := make([]float64, ds.T())
	per := make([][]float64, ds.T())
	for i := range rhos {
		row := make([]float64, m)
		rho, err := mon.ResidualInto(row, rec.Sample(ds.Map(i)))
		if err != nil {
			return drift.Calibration{}, err
		}
		rhos[i], per[i] = rho, row
	}
	return drift.Calibrate(rhos, per)
}

// accuracy measures peak_err_c: every validation map, estimated by the
// daemon through each given monitor (one JSON batch-16 request per chunk),
// against the map's true hottest cell. It returns the mean absolute error
// in °C and the number of snapshots it averaged.
func (l *lab) accuracy(r *run, c *client, mons []served) (float64, int, error) {
	sum, n := 0.0, 0
	for _, m := range mons {
		for ch := 0; ch < l.valid.T()/batch; ch++ {
			body := appendJSONReadings(nil, sample(l.valid, m.sensors, ch*batch, batch))
			rep, err := c.do(http.MethodPost, "/v1/monitors/"+m.id+"/estimate", "application/json", body)
			var sums []wire.Summary
			if err == nil {
				sums, err = decodeEstimate(r, rep, false)
			}
			r.op(err)
			if err != nil {
				return 0, 0, fmt.Errorf("accuracy pass: %w", err)
			}
			for i, s := range sums {
				sum += math.Abs(s.MaxC - l.truth[ch*batch+i])
				n++
			}
		}
	}
	return sum / float64(n), n, nil
}

// summarize is the digest the daemon serves: min, max, mean and the first
// cell attaining the max.
func summarize(x []float64) wire.Summary {
	s := wire.Summary{MinC: x[0], MaxC: x[0]}
	acc := 0.0
	for i, v := range x {
		acc += v
		if v > s.MaxC {
			s.MaxC, s.MaxCell = v, i
		}
		if v < s.MinC {
			s.MinC = v
		}
	}
	s.MeanC = acc / float64(len(x))
	return s
}

func maxOf(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		m = math.Max(m, v)
	}
	return m
}

// summaryTol is the agreement the correctness gate demands between a
// served summary and the in-process f64 reference, in °C. The daemon's
// folded operator and the reference QR solve differ only by rounding.
const summaryTol = 1e-6

// summaryMismatch compares a served summary against the reference and
// describes the first disagreement ("" = match). A different argmax is
// accepted only as a tie: the reference value there must be within
// tolerance of the reference max.
func summaryMismatch(got, want wire.Summary, ref []float64) string {
	switch {
	case !finite(got.MaxC, got.MinC, got.MeanC):
		return fmt.Sprintf("non-finite summary %+v", got)
	case math.Abs(got.MaxC-want.MaxC) > summaryTol:
		return fmt.Sprintf("max_c %v, reference %v", got.MaxC, want.MaxC)
	case math.Abs(got.MinC-want.MinC) > summaryTol:
		return fmt.Sprintf("min_c %v, reference %v", got.MinC, want.MinC)
	case math.Abs(got.MeanC-want.MeanC) > summaryTol:
		return fmt.Sprintf("mean_c %v, reference %v", got.MeanC, want.MeanC)
	case got.MaxCell != want.MaxCell:
		if got.MaxCell < 0 || got.MaxCell >= len(ref) || math.Abs(ref[got.MaxCell]-want.MaxC) > summaryTol {
			return fmt.Sprintf("max_cell %d, reference %d", got.MaxCell, want.MaxCell)
		}
	}
	return ""
}
