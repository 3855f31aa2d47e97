package main

import (
	"sort"
)

// workload is one benchmark traffic mix.
type workload struct {
	// flags are the daemon flags the workload launches emapsd with
	// (setup directories shown as <setup>).
	flags func(opt options) []string
	run   func(r *run) error
}

var workloads = map[string]*workload{
	"create": {
		flags: func(opt options) []string { return createArgs("<setup>") },
		run:   runCreate,
	},
	"estimate": {
		flags: func(opt options) []string { return serveArgs(opt, false, "<setup>") },
		run:   func(r *run) error { return runServe(r, false) },
	},
	"fleet": {
		flags: func(opt options) []string { return serveArgs(opt, true, "<setup>") },
		run:   func(r *run) error { return runServe(r, true) },
	},
	"control": {
		flags: func(opt options) []string { return controlArgs() },
		run:   runControl,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// trainSeed is the training seed of a run's i-th training configuration.
// Training configurations are fixed, like the grid, so placement, basis and
// accuracy are the same on every run; --seed drives the traffic: the
// held-out simulation its readings come from (heldSeed) and the request
// streams. validSeed is the fixed held-out simulation peak_err_c is
// measured on. No two of these seeds coincide, so the daemon is never asked
// to reconstruct a map it was trained on.
func trainSeed(i int) int64 { return 1009 + int64(i) }

func heldSeed(seed int64) int64 { return 1_000_003*seed + 101 }

const validSeed = 7
