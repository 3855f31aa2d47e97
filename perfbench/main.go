// Command perfbench is the repository benchmark. It launches a freshly
// built emapsd as a child process, drives it over HTTP from this one
// process with at most nproc connections, checks the daemon's answers
// against in-process references, and prints the workload's metrics, each
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// Server-Timing off; with --trace 1 they are the per-layer ones, from a
// traced run plus in-process replays of the same configuration through
// each layer's exported functions, and a cost ledger per workload is
// printed above the JSON line.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash perfbench/run.sh --workload estimate --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	create    cold and warm POST /v1/monitors on a durable store
//	estimate  JSON estimate, batch 16, 2 closed-loop connections
//	fleet     binary estimate over a fleet far larger than -max-monitors
//	control   open-loop single-snapshot govern (binary) and track (JSON)
//
// Every input the daemon receives is generated from --seed: training seeds
// for the monitors it creates, and sensor readings sampled from a held-out
// simulation run under a different seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // emapsd binary
	work     string // scratch directory, wiped at start
	size     sizes
}

// sizes are the problem dimensions: the paper's 60×56 grid by default, a
// tiny grid in the smoke tests.
type sizes struct {
	gridW, gridH int
	trainSnaps   int // training-ensemble size of every create
	heldOut      int // held-out maps the readings are sampled from
	fleet        int // monitors in the fleet workload
	maxResident  int // the fleet daemon's -max-monitors
	setups       int // daemon set-ups per run for the setup_s median
	createSetups int // the create workload's set-ups (boot only, cheap)
}

var paperSize = sizes{gridW: 60, gridH: 56, trainSnaps: 160, heldOut: 160,
	fleet: 32, maxResident: 2, setups: 5, createSetups: 15}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&opt.daemon, "daemon", "", "emapsd binary to launch")
	flag.StringVar(&opt.work, "work", "", "scratch directory (wiped at start)")
	flag.Parse()
	opt.trace = trace == 1
	opt.size = paperSize
	if err := opt.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := execute(opt, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (o *options) validate() error {
	if workloads[o.workload] == nil {
		return fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.daemon == "" || o.work == "" {
		return fmt.Errorf("-daemon and -work are required (run through perfbench/run.sh)")
	}
	abs, err := filepath.Abs(o.work)
	if err != nil {
		return err
	}
	o.work = abs
	return nil
}

// execute runs one workload and returns its result line. Human-readable
// lines (machine, provenance, metrics with units, ledger) go to out.
func execute(opt options, out io.Writer) (*result, error) {
	if err := os.RemoveAll(opt.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opt.work)
	wl := workloads[opt.workload]
	fmt.Fprintf(out, "machine: nproc=%d cpu=%q go=%s goos=%s goarch=%s\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "workload: %s seed=%d seconds=%g trace=%v grid=%dx%d daemon flags: %s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.size.gridW, opt.size.gridH, strings.Join(wl.flags(opt), " "))
	r := newRun(opt, out)
	steal0, total0 := hostSteal()
	ref0 := referenceMS()
	if err := wl.run(r); err != nil {
		return nil, err
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.line("host: %.2f%% of CPU time stolen by the hypervisor during the run; wall-clock metrics grow with it", 100*(steal1-steal0)/(total1-total0))
	}
	r.line("host: reference kernel %.3f ms before the run, %.3f ms after; every wall-clock metric scales with it", ref0, referenceMS())
	return r.finish()
}

// referenceMS times a fixed in-process kernel, a 256×256 float64 matrix
// product, and returns the median of 11 runs in ms. It does the same work on
// every run of every commit, so it shows how fast the host was: on a
// shared virtual machine that changes by large factors from one minute to
// the next, independently of the code under test.
func referenceMS() float64 {
	const n = 256
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7), float64(i%5)
	}
	ds := make([]float64, 11)
	for rep := range ds {
		t := time.Now()
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		ds[rep] = ms(time.Since(t))
	}
	return median(ds)
}

// hostSteal returns the steal and total CPU time of all CPUs, in ticks,
// from /proc/stat, or zeros off Linux. On a shared virtual machine the
// share stolen varies from minutes to minutes and moves every wall-clock
// metric with it, so each run reports it.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, _ = strconv.ParseFloat(f[8], 64)
	return steal, total
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
