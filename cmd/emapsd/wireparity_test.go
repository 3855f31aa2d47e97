package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// postBinary sends one application/x-emaps estimate and returns the raw
// response and its status/content-type.
func postBinary(t *testing.T, ts *httptest.Server, path string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestBinaryEstimateParity is the wire-protocol acceptance pin: the same
// readings sent as JSON and as application/x-emaps decode to bit-identical
// summaries — same float64 bits in every field, same maps — because both
// protocols serialize the same computed structs. Covers both map modes.
func TestBinaryEstimateParity(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	readings := [][]float64{
		{62, 61, 60, 59, 58, 57, 56, 55},
		{80.25, 61.5, 90.125, 59, 58, 57.75, 56, 55.0625},
	}
	for _, tc := range []struct {
		name string
		maps bool
	}{
		{"operator summaries", false},
		{"operator with maps", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jreq, err := json.Marshal(map[string]any{
				"readings": readings, "include_maps": tc.maps,
			})
			if err != nil {
				t.Fatal(err)
			}
			code, jbody := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(jreq))
			if code != 200 {
				t.Fatalf("JSON estimate: %d %s", code, jbody)
			}
			var jresp struct {
				Results []wire.Summary `json:"results"`
			}
			if err := json.Unmarshal([]byte(jbody), &jresp); err != nil {
				t.Fatal(err)
			}

			frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{
				Readings: readings, IncludeMaps: tc.maps,
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := postBinary(t, ts, "/v1/monitors/"+cr.ID+"/estimate", frame)
			if resp.StatusCode != 200 {
				t.Fatalf("binary estimate: %d %s", resp.StatusCode, raw)
			}
			if got := resp.Header.Get("Content-Type"); got != wire.ContentType {
				t.Fatalf("binary response Content-Type %q, want %q", got, wire.ContentType)
			}
			bresp, quality, err := wire.DecodeEstimateResponse(raw)
			if err != nil {
				t.Fatalf("decode binary response: %v", err)
			}
			if quality != wire.QualityOK {
				t.Fatalf("healthy monitor served quality %v, want ok", quality)
			}

			if len(bresp) != len(jresp.Results) {
				t.Fatalf("binary returned %d summaries, JSON %d", len(bresp), len(jresp.Results))
			}
			for i := range bresp {
				b, j := bresp[i], jresp.Results[i]
				if math.Float64bits(b.MaxC) != math.Float64bits(j.MaxC) ||
					math.Float64bits(b.MinC) != math.Float64bits(j.MinC) ||
					math.Float64bits(b.MeanC) != math.Float64bits(j.MeanC) ||
					b.MaxCell != j.MaxCell {
					t.Fatalf("summary %d differs across protocols:\nbinary %+v\njson   %+v", i, b, j)
				}
				if len(b.Map) != len(j.Map) {
					t.Fatalf("summary %d map length %d (binary) vs %d (json)", i, len(b.Map), len(j.Map))
				}
				for c := range b.Map {
					if math.Float64bits(b.Map[c]) != math.Float64bits(j.Map[c]) {
						t.Fatalf("summary %d map cell %d differs: %x vs %x",
							i, c, math.Float64bits(b.Map[c]), math.Float64bits(j.Map[c]))
					}
				}
				if tc.maps == (len(b.Map) == 0) {
					t.Fatalf("summary %d: include_maps=%v but map has %d cells", i, tc.maps, len(b.Map))
				}
			}
		})
	}
}

// TestBinaryEstimateErrors: protocol errors on the binary path keep the
// JSON error envelope — one error-handling code path for every client —
// and never take the daemon down.
func TestBinaryEstimateErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	path := "/v1/monitors/" + cr.ID + "/estimate"

	good, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{
		Readings: [][]float64{{62, 61, 60, 59, 58, 57, 56, 55}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flag bit 1 once selected a QR solve arm; it is an unknown flag now.
	// The CRC is patched so the flag check itself rejects the frame.
	qrFlag := append([]byte(nil), good...)
	qrFlag[16] |= 0x02
	binary.LittleEndian.PutUint32(qrFlag[len(qrFlag)-4:], crc32.ChecksumIEEE(qrFlag[16:len(qrFlag)-4]))

	for _, tc := range []struct {
		name  string
		frame []byte
		code  string
	}{
		{"garbage", []byte("application/x-emaps my foot"), "bad_frame"},
		{"truncated", good[:len(good)-3], "bad_frame"},
		{"empty", nil, "bad_frame"},
		{"corrupt payload", append(append([]byte{}, good[:20]...), good[21:]...), "bad_frame"},
		{"qr arm flag", qrFlag, "bad_frame"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postBinary(t, ts, path, tc.frame)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error Content-Type %q, want JSON envelope", ct)
			}
			var env errEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v (%s)", err, raw)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q", env.Error.Code, tc.code)
			}
		})
	}

	// Wrong-length readings reach the estimator and come back as the same
	// bad_readings a JSON client sees.
	short, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postBinary(t, ts, path, short)
	var env errEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != 400 || env.Error.Code != "bad_readings" {
		t.Fatalf("short readings: %d %s (%v), want 400 bad_readings", resp.StatusCode, raw, err)
	}

	// The daemon still serves after every malformed frame.
	if code, b := bodyString(t, ts, http.MethodPost, path, estimateBody); code != 200 {
		t.Fatalf("daemon unhealthy after malformed frames: %d %s", code, b)
	}
}
