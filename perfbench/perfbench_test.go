package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// tinySize keeps every workload's smoke run to a few seconds.
var tinySize = sizes{gridW: 16, gridH: 14, trainSnaps: 64, heldOut: 64,
	fleet: 12, maxResident: 2, setups: 2, createSetups: 2}

// buildDaemon builds cmd/emapsd from the enclosing repository once per
// test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and launches emapsd")
	}
	bin := filepath.Join(t.TempDir(), "emapsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/emapsd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building emapsd: %v\n%s", err, out)
	}
	return bin
}

// tinyRun runs one workload at the tiny size for one second.
func tinyRun(t *testing.T, daemon, workload string, trace bool) (*result, string) {
	t.Helper()
	opt := options{workload: workload, seed: 3, seconds: 1, trace: trace,
		daemon: daemon, work: filepath.Join(t.TempDir(), "work"), size: tinySize}
	var out bytes.Buffer
	res, err := execute(opt, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestBenchmarkJSONMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "create,estimate,fleet,control"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	for _, side := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(side.declared) != len(side.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", side.what, len(side.declared), len(side.defs))
			continue
		}
		for i, d := range side.defs {
			if side.declared[i].Name != d.name || side.declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", side.what, i,
					side.declared[i].Name, side.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmokeEachWorkload runs every workload untraced and traced at the
// tiny size and checks each declared metric is printed with its unit, both
// on a report line and in the result line.
func TestSmokeEachWorkload(t *testing.T) {
	daemon := buildDaemon(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, daemon, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if !strings.Contains(out, "ledger ") {
					t.Errorf("%s: traced run printed no ledger\n%s", w, out)
				}
			}
			printed := map[string]string{}
			sc := bufio.NewScanner(strings.NewReader(out))
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) >= 4 && f[0] == "metric" {
					printed[f[1]] = f[3]
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if printed[d.name] != d.unit {
					t.Errorf("%s trace=%v: metric %s printed with unit %q, want %q", w, trace, d.name, printed[d.name], d.unit)
				}
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: result metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			if !strings.Contains(out, "machine: nproc=") {
				t.Errorf("%s: no machine description\n%s", w, out)
			}
		}
	}
}

// TestGateTripsOnPerturbedReply perturbs one field of every reply the gate
// checks, per workload, and requires the run to come out incorrect.
func TestGateTripsOnPerturbedReply(t *testing.T) {
	daemon := buildDaemon(t)
	perturbs := map[string]func(path string, body []byte) []byte{
		// create: the daemon "places" a different first sensor.
		"create": func(path string, body []byte) []byte {
			if path != "/v1/monitors" {
				return body
			}
			var cr createResponse
			if json.Unmarshal(body, &cr) != nil || len(cr.Sensors) == 0 {
				return body
			}
			cr.Sensors[0] = (cr.Sensors[0] + 1) % cr.N
			out, _ := json.Marshal(cr)
			return out
		},
		// estimate: every JSON estimate reports its hottest cell 1 °C hot.
		"estimate": func(path string, body []byte) []byte {
			if !strings.HasSuffix(path, "/estimate") {
				return body
			}
			var er estimateReply
			if json.Unmarshal(body, &er) != nil {
				return body
			}
			for i := range er.Results {
				er.Results[i].MaxC++
			}
			out, _ := json.Marshal(er)
			return out
		},
		// fleet: the same, on the binary protocol.
		"fleet": func(path string, body []byte) []byte {
			if !strings.HasSuffix(path, "/estimate") {
				return body
			}
			sums, q, err := wire.DecodeEstimateResponse(body)
			if err != nil {
				return body
			}
			for i := range sums {
				sums[i].MaxC++
			}
			return wire.AppendEstimateResponse(nil, sums, q)
		},
		// control: every govern decision caps core 0 one level differently.
		"control": func(path string, body []byte) []byte {
			if !strings.HasSuffix(path, "/govern") {
				return body
			}
			resp, err := wire.DecodeGovernResponse(body)
			if err != nil {
				return body
			}
			for _, d := range resp.Decisions {
				d.Levels[0] = (d.Levels[0] + 1) % len(resp.Ladder)
			}
			out, err := wire.AppendGovernResponse(nil, resp)
			if err != nil {
				return body
			}
			return out
		},
	}
	t.Cleanup(func() { perturbReply = nil })
	for _, w := range workloadNames() {
		perturbReply = perturbs[w]
		res, out := tinyRun(t, daemon, w, false)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed replies passed the gate (failed=%d)\n%s", w, res.Failed, out)
		}
		if !strings.Contains(out, "FAILED: ") {
			t.Errorf("%s: no failure reported\n%s", w, out)
		}
	}
}

func TestSummaryMismatch(t *testing.T) {
	ref := []float64{1, 3, 2, 3}
	want := summarize(ref)
	if m := summaryMismatch(want, want, ref); m != "" {
		t.Fatalf("identical summaries mismatch: %s", m)
	}
	tie := want
	tie.MaxCell = 3 // the other cell holding the max
	if m := summaryMismatch(tie, want, ref); m != "" {
		t.Fatalf("a tied argmax must pass: %s", m)
	}
	for name, bad := range map[string]wire.Summary{
		"max":  {MaxC: want.MaxC + 1e-3, MinC: want.MinC, MeanC: want.MeanC, MaxCell: want.MaxCell},
		"min":  {MaxC: want.MaxC, MinC: want.MinC - 1e-3, MeanC: want.MeanC, MaxCell: want.MaxCell},
		"mean": {MaxC: want.MaxC, MinC: want.MinC, MeanC: want.MeanC + 1e-3, MaxCell: want.MaxCell},
		"cell": {MaxC: want.MaxC, MinC: want.MinC, MeanC: want.MeanC, MaxCell: 2},
	} {
		if summaryMismatch(bad, want, ref) == "" {
			t.Errorf("perturbed %s passed", name)
		}
	}
}

func TestServingSets(t *testing.T) {
	got := servingSets([]int{5, 6, 7}, []int{6})
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 || got[1][0] != 5 || got[1][1] != 7 {
		t.Fatalf("servingSets = %v", got)
	}
}

func TestSliceRate(t *testing.T) {
	var l latencies
	// 10 requests in the first second, 30 in the second, 20 in the third,
	// and one past the last whole slice, which is not counted.
	for i, n := range []int{10, 30, 20, 1} {
		for j := 0; j < n; j++ {
			l.add(time.Duration(i)*time.Second+time.Duration(j)*time.Millisecond, time.Millisecond)
		}
	}
	if got := l.rate(3500*time.Millisecond, 2); got != 40 {
		t.Fatalf("rate = %v, want the median slice's 20 requests × 2 snapshots = 40", got)
	}
	if got := l.rate(time.Second, 2); got != 122 {
		t.Fatalf("one-slice rate = %v, want 61 requests × 2 snapshots / 1 s = 122", got)
	}
}

func TestPairedOverhead(t *testing.T) {
	if got := pairedOverhead([]float64{0.1, 0.2, 5}, []float64{1, 2, 9}); got != 0.1 {
		t.Fatalf("pairedOverhead = %v, want median pair 0.2 / median untraced 2 = 0.1", got)
	}
}

func TestValidationMix(t *testing.T) {
	var v validation
	// Two layouts, the second twice as fast; the first layout's outliers
	// move neither its median nor its interquartile mean.
	v.layout = make([]layoutTraffic, 2)
	for _, d := range []time.Duration{1, 2, 2, 2, 2, 9} {
		v.layout[0].lat.add(0, d*time.Millisecond)
		v.layout[1].lat.add(0, time.Millisecond)
	}
	if got, want := v.rate(), float64(batch)*1000/1.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want batch over the layouts' mean latency (2+1)/2 ms = %v", got, want)
	}
	if got := v.p50(); got != 1.5 {
		t.Fatalf("p50 = %v, want the mean of the layouts' medians (2+1)/2 = 1.5", got)
	}
}
