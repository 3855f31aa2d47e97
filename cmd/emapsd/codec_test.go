package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// parseReadings drives the request scanner's row parser on one readings
// value.
func parseReadings(b *readingsBuf, doc string) ([][]float64, bool) {
	var req jsonRequest
	return b.parseRequest([]byte(`{"readings":`+doc+`}`), &req)
}

// The fast scanner must accept exactly what encoding/json accepts for a
// [][]float64 — directly, or by deferring (ok=false) to the fallback.
func TestParseReadingsAgreesWithEncodingJSON(t *testing.T) {
	accept := []string{
		`[]`,
		` [ ] `,
		`[[]]`,
		`[[1]]`,
		`[[1,2,3],[4.5,-6e2,7.25E-3]]`,
		"\n[\t[ 1 ,\r2 ] , [ 3,4 ] ]\n",
		`[[0.1,1e21,-1e-21,9007199254740993]]`,
	}
	buf := new(readingsBuf) // reused across documents, as a pooled buffer is
	for _, doc := range accept {
		got, ok := parseReadings(buf, doc)
		if !ok {
			t.Errorf("parseReadings(%q): fell back, want fast path", doc)
			continue
		}
		var want [][]float64
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", doc, err)
		}
		if len(got) != len(want) {
			t.Errorf("parseReadings(%q): %d rows, want %d", doc, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Errorf("parseReadings(%q): [%d][%d] = %v, want %v", doc, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	// Shapes the scanner must NOT claim: it defers, and encoding/json's
	// verdict (valid-but-unusual or an error) stands.
	defer_ := []string{
		``, `null`, `true`, `42`, `[1,2]`, `[[1],null]`, `[["a"]]`,
		`[[1,]]`, `[[1],]`, `[[1]] x`, `[[NaN]]`, `[[1e999]]`, `{"a":1}`, `[[1`, `[[--1]]`,
	}
	for _, doc := range defer_ {
		if _, ok := parseReadings(buf, doc); ok {
			t.Errorf("parseReadings(%q): claimed the fast path, want fallback", doc)
		}
	}
}

// The request scanner must agree with encoding/json on the documents it
// claims and defer on everything else. It serves estimate, track and
// govern, so the bodies include govern's config object.
func TestParseEstimateRequestAgreesWithEncodingJSON(t *testing.T) {
	claim := []string{
		`{}`,
		`{"readings":[[1,2],[3,4]]}`,
		`{"readings":[[1,2]],"workers":3,"include_maps":true}`,
		`{"include_maps":false,"workers":-1,"readings":[[5.5]]}`,
		` { "readings" : [ [ 1 ] ] , "workers" : 0 } `,
		`{"readings":[[1]],"readings":[[2,3]]}`, // duplicate key: last wins
		`{"workers":2}`,                         // readings absent: empty batch
		// Govern bodies: config present, null and absent.
		`{"config":{"policy":"pi","ceiling_c":70},"readings":[[1,2]]}`,
		`{"config":null,"readings":[[1,2]]}`,
		`{"readings":[[1,2]]}`,
		`{ "config" : { "policy" : "threshold" , "ladder" : [ 0.5 , 1 ] } }`,
		`{"config":{"policy":"pi","nested":{"a":{}}},"readings":[]}`,
		// Duplicate config keys: the last one wins outright, null included.
		`{"config":{"policy":"pi"},"config":{"ceiling_c":70}}`,
		`{"config":{"policy":"pi"},"config":null}`,
		// A config sent to estimate scans the same; only govern reads it.
		`{"readings":[[1,2]],"include_maps":true,"config":{"policy":"hysteresis"}}`,
	}
	for _, doc := range claim {
		buf := new(readingsBuf)
		var fast jsonRequest
		rows, ok := buf.parseRequest([]byte(doc), &fast)
		if !ok {
			t.Errorf("parseRequest(%q): fell back, want fast path", doc)
			continue
		}
		var std jsonRequest
		if err := json.Unmarshal([]byte(doc), &std); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", doc, err)
		}
		var stdRows [][]float64
		if len(std.Readings) > 0 {
			if err := json.Unmarshal(std.Readings, &stdRows); err != nil {
				t.Fatalf("json.Unmarshal readings(%q): %v", doc, err)
			}
		}
		if fast.Workers != std.Workers || fast.IncludeMaps != std.IncludeMaps {
			t.Errorf("parseRequest(%q): scalars workers=%d include_maps=%v, want %d/%v",
				doc, fast.Workers, fast.IncludeMaps, std.Workers, std.IncludeMaps)
		}
		if !bytes.Equal(fast.Config, std.Config) {
			t.Errorf("parseRequest(%q): config %q, want %q", doc, fast.Config, std.Config)
		}
		if len(rows) != len(stdRows) {
			t.Errorf("parseRequest(%q): %d rows, want %d", doc, len(rows), len(stdRows))
			continue
		}
		for i := range rows {
			if !reflect.DeepEqual(rows[i], stdRows[i]) {
				t.Errorf("parseRequest(%q): row %d = %v, want %v", doc, i, rows[i], stdRows[i])
			}
		}
	}

	defer_ := []string{
		``, `null`, `[]`, `{`, `{"readings":null}`, `{"readings":[[1]],"extra":1}`,
		`{"workers":1.5}`, `{"workers":"3"}`, `{"include_maps":1}`,
		`{"readings":[[1]]} trailing`, `{"readings":[[1]]`,
		`{"readings":[[1]],"arm":"qr"}`, // arm is an unknown field now
		// Config shapes the byte scan does not claim.
		`{"config":{"policy":"p\u0069"}}`,                    // escape inside config
		`{"config":5}`, `{"config":"pi"}`, `{"config":[{}]}`, // not an object
		`{"config":{"policy":"pi"}`, `{"config":{"policy":"pi"}}}`, `{"config":nul}`,
	}
	for _, doc := range defer_ {
		buf := new(readingsBuf)
		var req jsonRequest
		if _, ok := buf.parseRequest([]byte(doc), &req); ok {
			t.Errorf("parseRequest(%q): claimed the fast path, want fallback", doc)
		}
	}
}

// Govern bodies the scanner defers still decode through encoding/json, and
// only govern interprets config: a config that is not a GovernConfig object
// is bad JSON on govern but ignored by estimate and track.
func TestJSONCodecConfigByRoute(t *testing.T) {
	cases := []struct {
		doc        string
		governErr  bool
		wantPolicy string // govern's decoded policy; "" = no config
	}{
		{`{"config":{"policy":"p\u0069"},"readings":[[1]]}`, false, "pi"},
		{`{"config":{"policy":"pi"},"config":{"ceiling_c":70}}`, false, ""},
		{`{"config":{"policy":"pi"},"config":null}`, false, ""},
		{`{"config":5,"readings":[[1]]}`, true, ""},
		{`{"config":{"policy":5}}`, true, ""},
		{`{"readings":[[1]],"arm":"qr"}`, false, ""},
	}
	for _, tc := range cases {
		for _, step := range []routeStep{stepEstimate, stepTrack, stepGovern} {
			var req request
			err := jsonCodec{}.decode([]byte(tc.doc), step, new(scratch), &req)
			if step != stepGovern {
				if err != nil || req.config != nil {
					t.Errorf("step %d %q: err %v config %+v, want config ignored", step, tc.doc, err, req.config)
				}
				continue
			}
			if (err != nil) != tc.governErr {
				t.Errorf("govern %q: err %v, want error %v", tc.doc, err, tc.governErr)
				continue
			}
			policy := ""
			if req.config != nil {
				policy = req.config.Policy
			}
			if err == nil && policy != tc.wantPolicy {
				t.Errorf("govern %q: policy %q, want %q", tc.doc, policy, tc.wantPolicy)
			}
		}
	}
}

// A pooled buffer reused across parses must not leak rows between requests.
func TestParseReadingsReuse(t *testing.T) {
	buf := new(readingsBuf)
	first, ok := parseReadings(buf, `[[1,2,3],[4,5,6],[7,8,9]]`)
	if !ok || len(first) != 3 {
		t.Fatalf("first parse: ok=%v rows=%d", ok, len(first))
	}
	second, ok := parseReadings(buf, `[[10,20]]`)
	if !ok || len(second) != 1 || !reflect.DeepEqual(second[0], []float64{10, 20}) {
		t.Fatalf("second parse: ok=%v rows=%v", ok, second)
	}
}

// The hand-rendered response decodes to exactly what encoding/json would
// have produced for the same summaries, with and without maps.
func TestAppendEstimateResponseMatchesEncodingJSON(t *testing.T) {
	cases := [][]snapshotSummary{
		{},
		{{MaxC: 91.25, MinC: 40.5, MeanC: 55.123456789012345, MaxCell: 7}},
		{
			{MaxC: 1e-7, MinC: -2.5e21, MeanC: 0, MaxCell: 0, Map: []float64{1.5, -2.25, 3e-9}},
			{MaxC: 80, MinC: 45, MeanC: 60.5, MaxCell: 119, Map: []float64{}},
		},
	}
	for _, results := range cases {
		got := appendEstimateResponse(nil, results, "drifting")
		if !json.Valid(got) {
			t.Fatalf("invalid JSON: %s", got)
		}
		type envelope struct {
			Quality string            `json:"quality"`
			Results []snapshotSummary `json:"results"`
		}
		var fromFast, fromStd envelope
		if err := json.Unmarshal(got, &fromFast); err != nil {
			t.Fatal(err)
		}
		if fromFast.Quality != "drifting" {
			t.Fatalf("quality %q, want drifting", fromFast.Quality)
		}
		std, err := json.Marshal(envelope{Quality: "drifting", Results: results})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		// Compare decoded values bit-for-bit; the empty-but-non-nil map
		// distinction is lost by omitempty in both renderers alike.
		if len(fromFast.Results) != len(fromStd.Results) {
			t.Fatalf("%d results, want %d", len(fromFast.Results), len(fromStd.Results))
		}
		for i := range fromFast.Results {
			a, b := fromFast.Results[i], fromStd.Results[i]
			for _, pair := range [][2]float64{{a.MaxC, b.MaxC}, {a.MinC, b.MinC}, {a.MeanC, b.MeanC}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("result %d: %v != %v", i, pair[0], pair[1])
				}
			}
			if a.MaxCell != b.MaxCell || !reflect.DeepEqual(a.Map, b.Map) {
				t.Fatalf("result %d: %+v != %+v", i, a, b)
			}
		}
	}
}
