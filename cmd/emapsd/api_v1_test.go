package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// metricsBody fetches the Prometheus exposition text.
func metricsBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// counterValue extracts one un-labeled counter's value from exposition text.
func counterValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("counter %s: parsing %q: %v", name, val, err)
		}
		return n
	}
	t.Fatalf("counter %s not in metrics output", name)
	return 0
}

// Every failure is the uniform {"error":{"code","message"}} envelope, with a
// stable slug in code and free-form detail in message.
func TestErrorEnvelopeShape(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"unknown route", http.MethodGet, "/v1/nope", "", 404, "not_found"},
		{"unknown unversioned route", http.MethodGet, "/nope", "", 404, "not_found"},
		// The pre-/v1 unversioned aliases are gone: they are unknown routes.
		{"unversioned list", http.MethodGet, "/monitors", "", 404, "not_found"},
		{"unversioned create", http.MethodPost, "/monitors", `{}`, 404, "not_found"},
		{"unversioned healthz", http.MethodGet, "/healthz", "", 404, "not_found"},
		{"unversioned metrics", http.MethodGet, "/metrics", "", 404, "not_found"},
		{"wrong method", http.MethodGet, "/v1/monitors/mon-1/estimate", "", 404, "not_found"},
		{"bad create JSON", http.MethodPost, "/v1/monitors", "{", 400, "bad_json"},
		{"unknown monitor", http.MethodPost, "/v1/monitors/mon-404/estimate", `{"readings":[[1]]}`, 404, "not_found"},
		{"bad floorplan", http.MethodPost, "/v1/monitors", `{"floorplan":"pentium"}`, 400, "bad_floorplan"},
	}
	for _, tc := range cases {
		var env errEnvelope
		resp := doJSON(t, ts, tc.method, tc.path, tc.body, &env)
		if resp.StatusCode != tc.wantStatus || env.Error.Code != tc.wantCode || env.Error.Message == "" {
			t.Errorf("%s: status %d code %q message %q, want %d/%q with detail",
				tc.name, resp.StatusCode, env.Error.Code, env.Error.Message, tc.wantStatus, tc.wantCode)
		}
	}
}

// Concurrent estimate requests against one monitor each agree bit for bit
// with an in-process EstimateBatch of the same readings.
func TestConcurrentEstimatesBitIdentical(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	readings := make([][]float64, 4)
	for i := range readings {
		readings[i] = make([]float64, cr.M)
		for j := range readings[i] {
			readings[i][j] = 45 + float64(i) - 0.5*float64(j)
		}
	}
	body, _ := json.Marshal(map[string]any{"readings": readings, "include_maps": true})
	srv.mu.Lock()
	mon := srv.monitors[cr.ID].res.Load().mon
	srv.mu.Unlock()
	want, err := mon.EstimateBatch(readings, 1)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var wg sync.WaitGroup
	results := make([][]snapshotSummary, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/monitors/"+cr.ID+"/estimate", strings.NewReader(string(body)))
			resp, err := ts.Client().Do(req)
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var out struct {
				Results []snapshotSummary `json:"results"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[c] = err
				return
			}
			results[c] = out.Results
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		for i := range want {
			for k, w := range want[i] {
				if got := results[c][i].Map[k]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("client %d snapshot %d cell %d: served %v vs in-process %v", c, i, k, got, w)
				}
			}
		}
	}
}
