package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// installServing creates the serving monitors on a fresh daemon and checks
// every create against the replayed placement. It returns the monitors and
// the cold and warm (placing) create wall times.
func installServing(r *run, l *lab, c *client, seed int64, fleet bool, tracking bool, mix []monSpec) (mons []served, cold float64, warm []float64, err error) {
	for j, s := range mix {
		req := l.request(seed, s.k, s.m)
		req.Tracking = tracking
		cr, wall, err := c.create(req)
		r.op(err)
		if err != nil {
			return nil, 0, nil, err
		}
		p, err := l.place(seed, s.k, s.m)
		if err != nil {
			return nil, 0, nil, err
		}
		checkCreate(r, cr, p.sensors, l.grid.N())
		if j == 0 {
			cold = wall.Seconds()
		} else {
			warm = append(warm, wall.Seconds())
		}
		mons = append(mons, served{id: cr.ID, spec: j, sensors: cr.Sensors})
	}
	if !fleet {
		return mons, cold, warm, nil
	}
	// The rest of the fleet reuses the placed layouts with explicit sensors:
	// warm creates that skip placement, so a large fleet installs fast.
	for f := len(mix); f < l.size.fleet; f++ {
		base := mons[f%len(mix)]
		req := l.request(seed, mix[base.spec].k, 0)
		req.Sensors = base.sensors
		cr, _, err := c.create(req)
		r.op(err)
		if err != nil {
			return nil, 0, nil, err
		}
		checkCreate(r, cr, base.sensors, l.grid.N())
		mons = append(mons, served{id: cr.ID, spec: base.spec, sensors: cr.Sensors})
	}
	return mons, cold, warm, nil
}

// checkCreate is the create correctness gate: the daemon placed exactly the
// sensors the in-process replay placed, over the full grid, with a finite
// condition number.
func checkCreate(r *run, cr createResponse, want []int, n int) {
	r.check(fmt.Sprint(cr.Sensors) == fmt.Sprint(want), "create %s: sensors %v, replay placed %v", cr.ID, cr.Sensors, want)
	r.check(finite(cr.Cond) && cr.Cond >= 1, "create %s: cond %v", cr.ID, cr.Cond)
	r.check(cr.N == n, "create %s: n=%d, want %d", cr.ID, cr.N, n)
}

// setupRuns launches and installs the workload n times, keeping the last
// daemon for measurement. install returns once the daemon is ready to
// measure; setup_s is the median launch-to-ready. It also returns the peak
// RSS of each daemon it stopped, read when that daemon was ready.
func setupRuns(r *run, n int, args func(dir string) []string, install func(d *daemon, c *client) error) (*daemon, []float64, error) {
	var d *daemon
	var times, rss []float64
	for i := 0; i < n; i++ {
		if d != nil {
			mb, err := d.peakRSSMB()
			d.stop()
			if err != nil {
				return nil, nil, err
			}
			rss = append(rss, mb)
		}
		dir := filepath.Join(r.opt.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		var err error
		d, err = startDaemon(r.opt.daemon, args(dir))
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d.base, 1)
		err = install(d, c)
		c.close()
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		times = append(times, since(start))
	}
	r.set("setup_s", median(times))
	r.line("setup: %d launches to ready, median %.4f s (%v)", n, median(times), fmtList(times))
	return d, rss, nil
}

// setRSS sets daemon_rss_mb: the median peak RSS over the run's daemons,
// the measuring one read after its window and the others when they were
// ready to measure. One daemon's peak depends on when its garbage
// collector ran between create's large transient allocations; the median
// over set-ups does not.
func setRSS(r *run, d *daemon, setups []float64) error {
	mb, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	all := append(append([]float64(nil), setups...), mb)
	r.set("daemon_rss_mb", median(all))
	r.line("peak RSS: %s MB (median %.1f)", fmtList(all), median(all))
	return nil
}

// setCreates sets the create metrics from the run's cold and warm create
// wall times.
func setCreates(r *run, colds, warms []float64) {
	r.set("create_cold_s", median(colds))
	r.set("create_warm_s", median(warms))
	r.line("creates: cold %s s; warm %s s", fmtList(colds), fmtList(warms))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
