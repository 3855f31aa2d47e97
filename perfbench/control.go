package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/recon"
	"repro/internal/track"
	"repro/internal/wire"
)

// controlMix are the control workload's monitors, one per agent, both
// created with a tracker.
var controlMix = []monSpec{{8, 16}, {6, 12}}

// agentPeriod is each agent's control period: it sends one single-snapshot
// request per period whether or not the previous reply was late (an open
// loop), alternating binary govern and JSON track. It is the step the
// repository's closed-loop governor runs at: governor.Run steps the
// transient simulation and the controller once per thermal time step,
// thermal.Config's default DtSeconds of 10 ms.
const agentPeriod = 10 * time.Millisecond

// governPolicy is the governor every agent installs; its ceiling sits at
// the validation ensemble's median peak so the caps move during the run.
const governPolicy = "hysteresis"

// controlArgs are the control daemon's flags (see serveArgs on
// -adapt-after 0).
func controlArgs() []string { return []string{"-log-sample", "1000", "-adapt-after", "0"} }

func runControl(r *run) error {
	opt := r.opt
	l, err := newLab(opt.size, heldSeed(opt.seed))
	if err != nil {
		return err
	}
	seed := trainSeed(0)
	for _, s := range controlMix {
		if _, err := l.place(seed, s.k, s.m); err != nil {
			return err
		}
	}
	cfg := &wire.GovernConfig{Policy: governPolicy, CeilingC: median(append([]float64(nil), l.truth...))}
	var mons []served
	var colds, warms []float64
	installs := make([]governStep, len(controlMix))
	d, setupRSS, err := setupRuns(r, opt.size.setups, func(string) []string { return controlArgs() }, func(d *daemon, c *client) error {
		var cold float64
		var warm []float64
		var err error
		mons, cold, warm, err = installServing(r, l, c, seed, false, true, controlMix)
		if err != nil {
			return err
		}
		colds = append(colds, cold)
		warms = append(warms, warm...)
		// Install each agent's governor with held-out map 0.
		for a, m := range mons {
			body, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Config: cfg, Readings: l.readings(m.sensors, 0, 1)})
			if err != nil {
				return err
			}
			rep, err := c.do(http.MethodPost, "/v1/monitors/"+m.id+"/govern", wire.ContentType, body)
			if err == nil {
				installs[a], err = parseGovern(r, rep)
			}
			r.op(err)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	setCreates(r, colds, warms)

	H := l.held.T()
	gen := &controlGen{r: r, mons: mons, held: H, next: make([]int, len(mons))}
	for _, m := range mons {
		var gb, tb [][]byte
		for i := 0; i < H; i++ {
			rows := l.readings(m.sensors, i, 1)
			frame, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: rows})
			if err != nil {
				return err
			}
			gb = append(gb, frame)
			tb = append(tb, appendJSONReadings(nil, rows))
		}
		gen.govern = append(gen.govern, gb)
		gen.track = append(gen.track, tb)
		gen.steps = append(gen.steps, &agentSteps{})
	}
	gen.c = newClient(d.base, len(mons))
	defer gen.c.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	// Accuracy first, on the freshly installed monitors (see runServe).
	acc, n, err := l.accuracy(r, gen.c, mons)
	if err != nil {
		return err
	}
	r.set("peak_err_c", acc)
	r.line("peak_err_c over %d validation snapshots (%d monitors)", n, len(mons))

	gen.phase(warmup, false)
	if !opt.trace {
		ph := gen.phase(opt.seconds, false)
		if err := setRSS(r, d, setupRSS); err != nil {
			return err
		}
		r.set("snapshots_per_s", ph.capacity)
		r.set("latency_p50_ms", ph.lat.p50())
		r.line("latency distribution: %s; latency_p99_ms %.4f ms (median of %g-s slices' p99, per-layer)", ph.lat.profile(), ph.lat.p99(ph.wall), tailSlice)
		r.line("latency: %d single-snapshot requests, open loop (timed from the due time when the daemon held a send back), %d agents at %.0f requests/s each, %.2f s; send-to-reply p50 %.4f ms; generator late by %.4f ms on average (p50 %.4f ms)",
			len(ph.lat.ms), len(mons), float64(time.Second)/float64(agentPeriod), ph.wall.Seconds(),
			quantile(ph.service, 0.5), mean(ph.late), quantile(append([]float64(nil), ph.late...), 0.5))
		r.line("throughput: %.1f snapshots/s offered by the schedule, %.1f completed; snapshots_per_s is the service-time capacity, Σ over agents of 1 / median send-to-reply time",
			float64(len(mons))*float64(time.Second)/float64(agentPeriod), float64(ph.snapshots)/ph.wall.Seconds())
	} else if err := gen.traced(l, seed, cfg); err != nil {
		return err
	}
	if err := r.exclusions(gen.c); err != nil {
		return err
	}
	return gen.replay(l, seed, cfg, installs)
}

// controlGen is the open-loop generator of the control workload.
type controlGen struct {
	r      *run
	c      *client
	mons   []served
	held   int
	govern [][][]byte // [agent][held map] binary govern frames
	track  [][][]byte // [agent][held map] JSON track bodies
	next   []int      // per agent: requests sent so far, across phases
	steps  []*agentSteps
}

// agentSteps is one agent's completed replies in send order, kept for the
// replay gate.
type agentSteps struct {
	govern []governStep
	track  []trackStep
}

type governStep struct {
	held   int // held-out map index
	levels []int
	maxC   float64
}

type trackStep struct {
	held int
	maxC float64
}

// controlPhase is one measured window, merged over agents.
type controlPhase struct {
	lat       latencies // untraced: to reply, from the due time or the send (see phase)
	late      []float64 // ms from due time to send
	snapshots int
	wall      time.Duration
	stages    map[string]float64 // Σ Server-Timing ms by stage (traced)
	stageSum  float64
	service   []float64 // untraced: ms from send to reply
	tservice  []float64 // traced: ms from send to reply
	pairs     []float64 // ms: traced − untraced service of same-route requests two sends apart
	// capacity is the snapshots per second the daemon could serve the
	// agents back to back: Σ over agents of 1 / median untraced service
	// time. The schedule fixes the completed rate; the daemon sets this.
	capacity float64
}

// phase runs every agent on its schedule for seconds. Agent a's j-th
// request (counting across phases) carries held-out map (1+j) mod H: even
// j a binary govern, odd j a JSON track. With alternate set, requests j
// with j mod 4 in {2, 3} are traced, each paired with the untraced request
// of its route two sends earlier for the tracing overhead.
func (g *controlGen) phase(seconds float64, alternate bool) *controlPhase {
	parts := make([]*controlPhase, len(g.mons))
	var wall time.Duration
	quiet(func() {
		start := time.Now()
		end := start.Add(time.Duration(seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for a := range g.mons {
			parts[a] = &controlPhase{stages: make(map[string]float64)}
			wg.Add(1)
			go func(a int, p *controlPhase) {
				defer wg.Done()
				var prev time.Time // when the previous reply arrived
				plain := map[int]float64{}
				for k := 0; ; k++ {
					due := start.Add(time.Duration(k) * agentPeriod)
					if !due.Before(end) {
						return
					}
					sleepUntil(due)
					j := g.next[a]
					traced := alternate && j%4 >= 2
					sent := time.Now()
					rep, err := g.send(a, traced)
					g.r.op(err)
					if err != nil {
						continue
					}
					done := time.Now()
					// Timed from the due time when the daemon held the send
					// back (its previous reply came after it), so a stall
					// counts against every request it delays; timed from the
					// send when only the generator's own wake-up was late
					// (generator.late_ms reports that lateness).
					from := due
					if prev.Before(due) {
						from = sent
					}
					prev = done
					p.late = append(p.late, ms(sent.Sub(due)))
					p.snapshots++
					svc := ms(done.Sub(sent))
					if traced {
						p.tservice = append(p.tservice, svc)
						p.stageSum += timingSum(p.stages, rep.timing)
						if v, ok := plain[j-2]; ok {
							p.pairs = append(p.pairs, svc-v)
							delete(plain, j-2)
						}
					} else {
						p.lat.add(due.Sub(start), done.Sub(from))
						p.service = append(p.service, svc)
						if alternate {
							plain[j] = svc
						}
					}
				}
			}(a, parts[a])
		}
		wg.Wait()
		wall = time.Since(start)
	})
	out := &controlPhase{stages: make(map[string]float64), wall: wall}
	for _, p := range parts {
		out.lat.merge(&p.lat)
		out.late = append(out.late, p.late...)
		out.service = append(out.service, p.service...)
		out.tservice = append(out.tservice, p.tservice...)
		out.pairs = append(out.pairs, p.pairs...)
		out.snapshots += p.snapshots
		out.stageSum += p.stageSum
		for k, v := range p.stages {
			out.stages[k] += v
		}
		if len(p.service) > 0 {
			out.capacity += 1000 / median(p.service)
		}
	}
	return out
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's timers can wake a goroutine up to a millisecond late, which an
// open loop would count as daemon latency. A thread asleep in a system call
// keeps its P until the runtime's monitor takes it back, which can take
// milliseconds on an idle process, so the control workload raises
// GOMAXPROCS to leave the HTTP client's goroutines Ps of their own.
func sleepUntil(t time.Time) {
	wait := time.Until(t)
	if wait <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(wait))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// send issues agent a's next request and records its decoded reply.
func (g *controlGen) send(a int, traced bool) (reply, error) {
	j := g.next[a]
	g.next[a]++
	held := (1 + j) % g.held
	id := g.mons[a].id
	if j%2 == 0 {
		rep, err := g.c.doTraced(new(bytes.Buffer), traced, http.MethodPost, "/v1/monitors/"+id+"/govern", wire.ContentType, g.govern[a][held])
		if err != nil {
			return rep, err
		}
		st, err := parseGovern(g.r, rep)
		if err == nil {
			st.held = held
			g.steps[a].govern = append(g.steps[a].govern, st)
		}
		return rep, err
	}
	rep, err := g.c.doTraced(new(bytes.Buffer), traced, http.MethodPost, "/v1/monitors/"+id+"/track", "application/json", g.track[a][held])
	if err != nil {
		return rep, err
	}
	maxC, err := parseTrack(g.r, rep)
	if err == nil {
		g.steps[a].track = append(g.steps[a].track, trackStep{held: held, maxC: maxC})
	}
	return rep, err
}

// traced is the --trace 1 measurement of the control workload: one window
// alternating untraced and traced requests, and in-process replays of the
// per-request control kernels.
func (g *controlGen) traced(l *lab, seed int64, cfg *wire.GovernConfig) error {
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
	// Encode is not in Server-Timing; the flight recorder has it for the
	// govern route (track renders its reply inside drift scoring's span).
	debug, ndebug, err := g.c.debugStageMeans("govern")
	if err != nil {
		return err
	}
	n := float64(len(ph.tservice))
	stage := func(name string) float64 { return ph.stages[name] / n }
	encode := debug["encode"] / 2 // per request: govern is every other one
	service := mean(ph.tservice)
	overhead := pairedOverhead(ph.pairs, ph.service)
	setServingLayers(r, ph.stages, ph.stageSum, n, encode, service, before, after)
	r.set("generator.late_ms", mean(ph.late))
	r.set("trace.overhead_share", overhead)

	lg := &ledger{title: "control request",
		unit:     fmt.Sprintf("mean ms from send to reply, govern and track alternating, %d traced requests; encode from %d govern flight-recorder traces", len(ph.tservice), ndebug),
		overhead: fmt.Sprintf("median paired traced − untraced send-to-reply time over median untraced, %d same-route pairs", len(ph.pairs))}
	for _, name := range sortedKeys(ph.stages) {
		lg.add("stage."+name, stage(name))
	}
	lg.add("stage.encode", encode)
	lg.print(r, service, "http.unattributed", overhead)
	r.line("generator: late by %.4f ms on average (p99 %.4f ms) against its schedule", mean(ph.late), quantile(ph.late, 0.99))

	// Replay the per-request control kernels on the first agent's monitor.
	m := g.mons[0]
	spec := controlMix[m.spec]
	mon, err := l.monitor(seed, spec.k, m.sensors)
	if err != nil {
		return err
	}
	rows := l.readings(m.sensors, 0, l.held.T())
	maps, err := mon.EstimateBatch(rows, 0)
	if err != nil {
		return err
	}
	ctrl, err := newController(l, cfg)
	if err != nil {
		return err
	}
	i := 0
	step, _ := timeIt(2000, func() error {
		ctrl.Step(maps[i%len(maps)])
		i++
		return nil
	})
	r.set("governor.step_us", us(step))
	t, err := l.train(seed)
	if err != nil {
		return err
	}
	kf, err := track.NewKalman(t.model.Basis, spec.k, m.sensors, track.Config{})
	if err != nil {
		return err
	}
	tstep, err := timeIt(2000, func() error {
		j := i % len(rows)
		i++
		_, err := kf.StepBatch(rows[j : j+1])
		return err
	})
	if err != nil {
		return err
	}
	r.set("track.step_us", us(tstep))
	return nil
}

// newController builds the in-process twin of an installed governor.
func newController(l *lab, cfg *wire.GovernConfig) (*governor.Controller, error) {
	policy, err := governor.NewPolicy(cfg.Policy, governor.Params{CeilingC: cfg.CeilingC})
	if err != nil {
		return nil, err
	}
	return governor.NewController(policy, nil, governor.CoreCells(l.fp, l.fp.Rasterize(l.grid)))
}

// replay is the control correctness gate: each agent's govern decisions
// must equal an in-process Controller stepped over the same estimated maps
// in the same order, and each track reply must match an in-process Kalman
// filter stepped over the same readings.
//
// The daemon may have swapped a monitor to a set without sensors its drift
// detector excluded as faulty (GET /v1/monitors/{id} reports them); a
// swapped monitor gets a fresh tracker. The replay follows each reply to
// the first candidate serving set that reproduces it, and never back.
func (g *controlGen) replay(l *lab, seed int64, cfg *wire.GovernConfig, installs []governStep) error {
	r := g.r
	t, err := l.train(seed)
	if err != nil {
		return err
	}
	checked, throttled, decisions := 0, 0, 0
	for a, m := range g.mons {
		k := controlMix[m.spec].k
		excluded, err := g.c.excludedSensors(m.id)
		if err != nil {
			return err
		}
		var sets [][]int
		var mons []*core.Monitor
		for i, set := range servingSets(m.sensors, excluded) {
			mon, err := l.monitor(seed, k, set)
			if err != nil {
				if i > 0 {
					continue // never served (see checkChunk)
				}
				return err
			}
			sets = append(sets, set)
			mons = append(mons, mon)
		}
		ctrl, err := newController(l, cfg)
		if err != nil {
			return err
		}
		at := 0
		dst := [][]float64{make([]float64, l.grid.N())}
		steps := append([]governStep{installs[a]}, g.steps[a].govern...)
		for j, st := range steps {
			for ; at < len(sets); at++ {
				if err := mons[at].EstimateBatchArmInto(dst, l.readings(sets[at], st.held, 1), 0, recon.ArmOperator); err != nil {
					return err
				}
				if math.Abs(st.maxC-maxOf(dst[0])) <= summaryTol {
					break
				}
			}
			r.check(at < len(sets), "agent %d govern step %d: max_c %v matches no replayed serving set", a, j, st.maxC)
			if at == len(sets) {
				break
			}
			want := ctrl.Step(dst[0])
			r.check(fmt.Sprint(st.levels) == fmt.Sprint(want), "agent %d govern step %d: caps %v, replay %v", a, j, st.levels, want)
			checked++
			decisions++
			if ctrl.Throttled() > 0 {
				throttled++
			}
		}
		at = 0
		kf, err := track.NewKalman(t.model.Basis, k, sets[0], track.Config{})
		if err != nil {
			return err
		}
		for j, st := range g.steps[a].track {
			got := math.NaN()
			for ; at < len(sets); at++ {
				est, err := kf.StepBatch(l.readings(sets[at], st.held, 1))
				if err != nil {
					return err
				}
				if got = maxOf(est[0]); math.Abs(st.maxC-got) <= summaryTol {
					break
				}
				if at+1 < len(sets) {
					if kf, err = track.NewKalman(t.model.Basis, k, sets[at+1], track.Config{}); err != nil {
						return err
					}
				}
			}
			r.check(at < len(sets), "agent %d track step %d: max_c %v, replay %v", a, j, st.maxC, got)
			if at == len(sets) {
				break
			}
			checked++
		}
	}
	r.line("correctness: %d govern and track replies replayed in process (caps exact, max_c within %g C); %d of %d govern decisions capped a core",
		checked, summaryTol, throttled, decisions)
	return nil
}

func parseGovern(r *run, rep reply) (governStep, error) {
	if err := rep.expect(http.StatusOK); err != nil {
		return governStep{}, fmt.Errorf("govern: %w", err)
	}
	resp, err := wire.DecodeGovernResponse(rep.body)
	if err != nil {
		return governStep{}, err
	}
	r.quality(resp.Quality.String())
	if len(resp.Decisions) != 1 {
		return governStep{}, fmt.Errorf("govern returned %d decisions for 1 snapshot", len(resp.Decisions))
	}
	dec := resp.Decisions[0]
	return governStep{levels: append([]int(nil), dec.Levels...), maxC: dec.MaxC}, nil
}

func parseTrack(r *run, rep reply) (float64, error) {
	if err := rep.expect(http.StatusOK); err != nil {
		return 0, fmt.Errorf("track: %w", err)
	}
	var er estimateReply
	if err := json.Unmarshal(rep.body, &er); err != nil {
		return 0, err
	}
	r.quality(er.Quality)
	if len(er.Results) != 1 {
		return 0, fmt.Errorf("track returned %d results for 1 snapshot", len(er.Results))
	}
	return er.Results[0].MaxC, nil
}
