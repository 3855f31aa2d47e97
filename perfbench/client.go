package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// client drives one daemon over at most conns keep-alive connections.
// With traced set, every request carries an X-Request-Id, which opts the
// response into the Server-Timing stage breakdown.
type client struct {
	base   string
	hc     *http.Client
	traced atomic.Bool
	ids    atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// perturbReply, when set (only by the tests), rewrites every reply body
// before the benchmark reads it: the negative test of the correctness gate.
var perturbReply func(path string, body []byte) []byte

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	timing []wire.Timing // Server-Timing entries (traced requests only)
}

// do sends one request and reads the whole response.
func (c *client) do(method, path, ctype string, body []byte) (reply, error) {
	return c.doBuf(new(bytes.Buffer), method, path, ctype, body)
}

// doBuf is do reading the response into buf, which the reply's body
// aliases until buf's next use: the hot loops reuse one buffer per
// connection.
func (c *client) doBuf(buf *bytes.Buffer, method, path, ctype string, body []byte) (reply, error) {
	return c.doTraced(buf, c.traced.Load(), method, path, ctype, body)
}

// doTraced is doBuf with the request's tracing chosen by the caller, for
// windows that alternate traced and untraced requests.
func (c *client) doTraced(buf *bytes.Buffer, traced bool, method, path, ctype string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if traced {
		req.Header.Set(wire.HeaderRequestID, "pb-"+strconv.FormatInt(c.ids.Add(1), 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	rep := reply{status: resp.StatusCode, body: buf.Bytes()}
	if perturbReply != nil {
		rep.body = perturbReply(path, rep.body)
	}
	if traced {
		rep.timing = wire.ParseServerTiming(resp.Header.Get(wire.HeaderServerTiming))
	}
	return rep, nil
}

// expect turns a non-wantStatus reply into an error quoting the body.
func (rep reply) expect(want int) error {
	if rep.status != want {
		b := rep.body
		if len(b) > 300 {
			b = b[:300]
		}
		return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(b))
	}
	return nil
}

// createRequest is the POST /v1/monitors body the benchmark sends.
type createRequest struct {
	GridW     int   `json:"grid_w"`
	GridH     int   `json:"grid_h"`
	Snapshots int   `json:"snapshots"`
	Seed      int64 `json:"seed"`
	KMax      int   `json:"kmax"`
	K         int   `json:"k"`
	M         int   `json:"m"`
	Sensors   []int `json:"sensors,omitempty"`
	Tracking  bool  `json:"tracking,omitempty"`
}

type createResponse struct {
	ID      string  `json:"id"`
	N       int     `json:"n"`
	Sensors []int   `json:"sensors"`
	Cond    float64 `json:"cond"`
}

// create issues one POST /v1/monitors and returns the reply and its wall
// time.
func (c *client) create(req createRequest) (createResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return createResponse{}, 0, err
	}
	t := time.Now()
	rep, err := c.do(http.MethodPost, "/v1/monitors", "application/json", body)
	wall := time.Since(t)
	if err != nil {
		return createResponse{}, wall, fmt.Errorf("create: %w", err)
	}
	if err := rep.expect(http.StatusCreated); err != nil {
		return createResponse{}, wall, fmt.Errorf("create: %w", err)
	}
	var cr createResponse
	if err := json.Unmarshal(rep.body, &cr); err != nil {
		return createResponse{}, wall, fmt.Errorf("create: %w", err)
	}
	return cr, wall, nil
}

// scrape reads /v1/metrics.
func (c *client) scrape() (counters, error) {
	rep, err := c.do(http.MethodGet, "/v1/metrics", "", nil)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if err := rep.expect(http.StatusOK); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return parseCounters(rep.body), nil
}

// excludedSensors reads the cells the daemon's drift detector has excluded
// from monitor id's serving set as faulty since it was created.
func (c *client) excludedSensors(id string) ([]int, error) {
	rep, err := c.do(http.MethodGet, "/v1/monitors/"+id, "", nil)
	if err != nil {
		return nil, fmt.Errorf("monitor %s: %w", id, err)
	}
	if err := rep.expect(http.StatusOK); err != nil {
		return nil, fmt.Errorf("monitor %s: %w", id, err)
	}
	var st struct {
		Excluded []int `json:"excluded_sensors"`
	}
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return nil, fmt.Errorf("monitor %s: %w", id, err)
	}
	return st.Excluded, nil
}

// debugStageMeans reads the flight recorder's recent traces of one route
// and returns, over those the benchmark sent traced, the mean duration of
// each stage in milliseconds (absent stages count 0) and how many traces
// it averaged.
func (c *client) debugStageMeans(route string) (map[string]float64, int, error) {
	rep, err := c.do(http.MethodGet, "/v1/debug/requests?n=256&route="+route, "", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("debug: %w", err)
	}
	if err := rep.expect(http.StatusOK); err != nil {
		return nil, 0, fmt.Errorf("debug: %w", err)
	}
	var doc struct {
		Recent []struct {
			ID     string `json:"id"`
			Stages []struct {
				Stage string  `json:"stage"`
				DurMS float64 `json:"dur_ms"`
			} `json:"stages"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(rep.body, &doc); err != nil {
		return nil, 0, fmt.Errorf("debug: %w", err)
	}
	sums := make(map[string]float64)
	n := 0
	for _, t := range doc.Recent {
		if len(t.ID) < 3 || t.ID[:3] != "pb-" {
			continue
		}
		n++
		for _, s := range t.Stages {
			sums[s.Stage] += s.DurMS
		}
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return sums, n, nil
}

// estimateReply is the JSON estimate (and track) response shape.
type estimateReply struct {
	Quality string         `json:"quality"`
	Results []wire.Summary `json:"results"`
}

// appendJSONReadings renders {"readings":[[...],...]} with shortest
// round-trip floats, so the daemon parses exactly the generated values.
func appendJSONReadings(buf []byte, rows [][]float64) []byte {
	buf = append(buf, `{"readings":[`...)
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, ']', '}')
}

// timingSum adds Server-Timing entries into acc by stage name and returns
// their total in milliseconds.
func timingSum(acc map[string]float64, ts []wire.Timing) float64 {
	total := 0.0
	for _, t := range ts {
		acc[t.Name] += t.DurMS
		total += t.DurMS
	}
	return total
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
