package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is one declared metric: its name and unit exactly as
// BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, printed with
// --trace 0. Two more are printed as report lines but not gated here:
// failed_share, which is 0 on a good run (its exact inputs are the result
// line's attempted and failed counts), and latency_p99_ms, which is a
// per-layer metric: on a two-CPU virtual machine the slowest 1% of
// requests are set by host stalls and daemon garbage collections, and the
// figure swings by more than any usable bound from run to run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"create_cold_s", "s"},
	{"create_warm_s", "s"},
	{"snapshots_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"daemon_rss_mb", "MB"},
	{"peak_err_c", "C"},
}

// perLayer are the single-layer metrics of the traced run, printed with
// --trace 1. A layer the workload does not exercise reads 0. Names with
// "computed" units are derived from shapes, not measured.
var perLayer = []metricDef{
	// create: simulate, train, place, fold, calibrate, persist.
	{"dataset.generate_s", "s"},
	{"thermal.step_us", "us"},
	{"core.train_s", "s"},
	{"place.greedy_ms", "ms"},
	{"recon.fold_ms", "ms"},
	{"drift.calibrate_ms", "ms"},
	{"store.persist_ms", "ms"},
	{"store.record_bytes", "bytes"},
	{"emapsd.model_cache_hit_ratio", "ratio"},
	{"create.unattributed_s", "s"},
	// serving stages, from Server-Timing and the debug waterfall.
	{"stage.decode_ms", "ms"},
	{"stage.page_in_ms", "ms"},
	{"stage.solve_ms", "ms"},
	{"stage.drift_score_ms", "ms"},
	{"stage.govern_ms", "ms"},
	{"stage.encode_ms", "ms"},
	{"http.unattributed_ms", "ms"},
	// kernels and layers replayed in process.
	{"recon.gemm_us_per_snapshot", "us"},
	{"recon.gemm_flops_per_snapshot", "flop-computed"},
	{"recon.gemm_bytes_per_snapshot", "B-computed"},
	{"recon.gemm_flops_per_byte", "flop/B-computed"},
	{"drift.observe_us", "us"},
	{"drift.alarm_share", "ratio"},
	{"drift.sensor_exclusions", "count"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"governor.step_us", "us"},
	{"track.step_us", "us"},
	{"store.load_ms", "ms"},
	{"store.page_in_bytes_per_record", "B-computed"},
	// daemon counters, diffed over the traced window.
	{"store.page_in_share", "ratio"},
	{"emapsd.file_opens_per_req", "count"},
	{"runtime.gc_cycles_per_1k_req", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// the client's view: the tail (untraced requests of the traced run), how
	// late the generator ran, and what tracing costs.
	{"latency_p99_ms", "ms"},
	{"generator.late_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's counts, correctness verdicts and
// metrics.
type run struct {
	opt options
	out io.Writer

	attempted atomic.Int64 // operations sent plus correctness checks made
	failed    atomic.Int64 // operations failed or refused plus checks failed
	replies   atomic.Int64 // serving replies carrying a drift verdict
	alarms    atomic.Int64 // of those, verdicts other than "ok"

	mu       sync.Mutex
	failures []string // first few failure messages, for the report
	values   map[string]float64
}

func newRun(opt options, out io.Writer) *run {
	return &run{opt: opt, out: out, values: make(map[string]float64)}
}

// op counts one attempted operation; err != nil counts it failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%v", err)
	}
}

// check counts one correctness check; a false cond counts it failed.
func (r *run) check(cond bool, format string, args ...any) {
	r.attempted.Add(1)
	if !cond {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// quality counts one serving reply's drift verdict. Verdicts are reported
// (drift.alarm_share), not gated: the daemon's detector raises them on
// held-out maps of the training distribution. Every daemon the benchmark
// launches runs with -adapt-after 0, so an alarm never adapts the basis;
// the sensor exclusions an alarm can still trigger are followed by the
// correctness gate (see servingSets).
func (r *run) quality(q string) {
	r.replies.Add(1)
	if q != "ok" {
		r.alarms.Add(1)
	}
}

// exclusions records how many sensors the measuring daemon's drift
// detector has excluded as faulty since it started: the readings come from
// healthy simulated sensors, so every exclusion is a false alarm.
func (r *run) exclusions(c *client) error {
	now, err := c.scrape()
	if err != nil {
		return err
	}
	n := now["emapsd_sensor_faults_total"]
	r.line("sensor exclusions: %.0f healthy sensors excluded as faulty by the daemon's drift detector", n)
	r.set("drift.sensor_exclusions", n)
	return nil
}

// set records a metric value (end-to-end or per-layer; the catalogs say
// which).
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// line prints one human-readable report line.
func (r *run) line(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// finish prints every metric of the run's mode with its unit and builds
// the result line. An end-to-end metric the workload failed to measure is
// an error; an unexercised layer reads 0.
func (r *run) finish() (*result, error) {
	defs := endToEnd
	alarmShare := float64(r.alarms.Load()) / math.Max(1, float64(r.replies.Load()))
	r.line("drift verdicts: %d of %d serving replies not ok (%.4f)", r.alarms.Load(), r.replies.Load(), alarmShare)
	if r.opt.trace {
		defs = perLayer
		r.values["drift.alarm_share"] = alarmShare
	}
	res := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.opt.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", r.opt.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %v", r.opt.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		r.line("metric %-32s %14.6g %s", d.name, v, d.unit)
	}
	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", r.opt.workload)
	}
	r.line("metric %-32s %14.6g %s (%d of %d operations and checks)", "failed_share",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, f := range r.failures {
		r.line("FAILED: %s", f)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setServingLayers sets the per-layer metrics of a traced window: the
// serving stages (Σ Server-Timing ms over n traced requests, and the flight
// recorder's mean encode), what of the mean client-side time client they
// leave unattributed, and the daemon counters diffed between the before
// and after scrapes.
func setServingLayers(r *run, stages map[string]float64, stageSum, n, encode, client float64, before, after counters) {
	for _, st := range []string{"decode", "page_in", "solve", "drift_score", "govern"} {
		r.set("stage."+st+"_ms", stages[st]/n)
	}
	r.set("stage.encode_ms", encode)
	r.set("http.unattributed_ms", client-stageSum/n-encode)
	reqs := delta(before, after, "emapsd_http_requests_total")
	r.set("emapsd.file_opens_per_req", delta(before, after, "emapsd_file_opens_total")/reqs)
	r.set("runtime.gc_cycles_per_1k_req", 1000*delta(before, after, "emapsd_gc_cycles_total")/reqs)
	r.set("runtime.gc_pause_ms", 1000*delta(before, after, "emapsd_gc_pause_seconds_total"))
}

// ledger is one workload's cost breakdown: each layer's time, their sum,
// and the named remainder of the end-to-end time they do not explain.
type ledger struct {
	title    string
	unit     string
	overhead string // how the tracing overhead share was measured
	rows     []ledgerRow
}

type ledgerRow struct {
	layer string
	value float64
}

func (l *ledger) add(layer string, v float64) { l.rows = append(l.rows, ledgerRow{layer, v}) }

// print renders the ledger with its sum and the remainder against total.
func (l *ledger) print(r *run, total float64, remainder string, overhead float64) {
	r.line("ledger %s (%s):", l.title, l.unit)
	sum := 0.0
	for _, row := range l.rows {
		sum += row.value
		r.line("  %-28s %12.4f  %5.1f%%", row.layer, row.value, pct(row.value, total))
	}
	r.line("  %-28s %12.4f  %5.1f%%", "sum of layers", sum, pct(sum, total))
	r.line("  %-28s %12.4f  %5.1f%%", remainder, total-sum, pct(total-sum, total))
	r.line("  %-28s %12.4f", "end-to-end", total)
	if !math.IsNaN(overhead) {
		r.line("  %-28s %12.4f  (%s)", "tracing overhead share", overhead, l.overhead)
	}
}

func pct(v, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * v / total
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). Empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// tailSlice is the length in seconds of the slices latency_p99_ms is taken
// over.
const tailSlice = 1.0

// latencies are one measured window's request latencies, each with the
// time into the window its request was due.
type latencies struct {
	ms []float64
	at []float64 // s
}

func (l *latencies) add(at time.Duration, lat time.Duration) {
	l.ms = append(l.ms, ms(lat))
	l.at = append(l.at, at.Seconds())
}

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.at = append(l.at, o.at...)
}

func (l *latencies) p50() float64 { return quantile(append([]float64(nil), l.ms...), 0.5) }

// profile renders the distribution for the report: count, p50, p90, p99,
// p99.9 and max.
func (l *latencies) profile() string {
	xs := append([]float64(nil), l.ms...)
	return fmt.Sprintf("n=%d p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f ms",
		len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 0.999), quantile(xs, 1))
}

// p99 is the median, over the window's consecutive tailSlice-second
// slices, of each slice's 99th percentile: a slice stalled by something
// outside the daemon (a neighbour on a shared host) moves it less than it
// would a whole-window percentile. A window shorter than two slices gives
// its plain 99th percentile.
func (l *latencies) p99(window time.Duration) float64 {
	n := int(window.Seconds() / tailSlice)
	if n < 2 {
		return quantile(append([]float64(nil), l.ms...), 0.99)
	}
	slices := make([][]float64, n)
	for i, at := range l.at {
		j := int(at / tailSlice)
		if j >= n {
			j = n - 1
		}
		slices[j] = append(slices[j], l.ms[i])
	}
	var p99s []float64
	for _, s := range slices {
		if len(s) > 0 {
			p99s = append(p99s, quantile(s, 0.99))
		}
	}
	return median(p99s)
}

// rate is the median, over the window's whole tailSlice-second slices, of
// each slice's snapshots per second, counting each request (of per
// snapshots) in the slice it was sent in. Like p99, it is moved less by a
// slice stalled by something outside the daemon than a whole-window rate
// would be. A window shorter than two slices gives its plain rate.
func (l *latencies) rate(window time.Duration, per float64) float64 {
	n := int(window.Seconds() / tailSlice)
	if n < 2 {
		return float64(len(l.ms)) * per / window.Seconds()
	}
	rates := make([]float64, n)
	for _, at := range l.at {
		if j := int(at / tailSlice); j < n {
			rates[j] += per / tailSlice
		}
	}
	return median(rates)
}

// pairedOverhead is the tracing overhead of a window that alternates
// untraced and traced requests: the median over pairs of back-to-back
// requests of (traced − untraced) time, over the median untraced time. The
// pairs run close together, so the host's clock and load drift cancel
// inside each pair, which no comparison of two separate windows achieves.
func pairedOverhead(pairs, untraced []float64) float64 {
	if len(pairs) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(append([]float64(nil), pairs...)) / median(append([]float64(nil), untraced...))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quiet runs a measured window with the benchmark's own garbage collector
// held off (up to a memory limit), so its mark workers do not take the
// CPUs the daemon is being measured on.
func quiet(window func()) {
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	window()
}

// timeIt runs f reps times and returns the median duration of one call.
func timeIt(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds)), nil
}
