package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/wire"
)

// Reflection-free JSON fast paths for the serving hot route. The CPU profile
// of the estimate handler is dominated by encoding/json's reflective decode
// of the readings array and encode of the summary list — more than the
// batched GEMM itself — so the hot route parses its [][]float64 and renders
// its response by hand. Anything the tight scanner does not recognize
// (non-numeric tokens, nulls, malformed nesting) falls back to
// encoding/json, which remains the semantic authority: the fast path accepts
// exactly the documents the slow path accepts, or defers to it.

// readingsBuf is a pooled scratch parse state: all numbers land in one flat
// slice (grown once, reused across requests) and rows are rebuilt as
// subslices after the parse, so a steady-state request allocates nothing.
type readingsBuf struct {
	flat []float64
	ends []int // ends[i] = index into flat one past row i's last value
	rows [][]float64
}

// parseRowsAt scans one [[...]...] value starting at i, appending numbers to
// b.flat and row boundaries to b.ends. Returns the index just past the value
// (with trailing whitespace consumed).
func (b *readingsBuf) parseRowsAt(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return skipSpace(data, i+1), true // empty batch: valid, zero rows
	}
	for {
		if i >= len(data) || data[i] != '[' {
			return 0, false
		}
		i = skipSpace(data, i+1)
		if i < len(data) && data[i] == ']' {
			i = skipSpace(data, i+1)
		} else {
			for {
				j := i
				for j < len(data) && isNumByte(data[j]) {
					j++
				}
				if j == i {
					return 0, false
				}
				v, err := strconv.ParseFloat(string(data[i:j]), 64)
				if err != nil {
					return 0, false
				}
				b.flat = append(b.flat, v)
				i = skipSpace(data, j)
				if i >= len(data) {
					return 0, false
				}
				if data[i] == ',' {
					i = skipSpace(data, i+1)
					continue
				}
				if data[i] == ']' {
					i = skipSpace(data, i+1)
					break
				}
				return 0, false
			}
		}
		b.ends = append(b.ends, len(b.flat))
		if i >= len(data) {
			return 0, false
		}
		if data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if data[i] == ']' {
			return skipSpace(data, i+1), true
		}
		return 0, false
	}
}

// buildRows materializes row headers over the flat storage. Only called once
// flat can no longer reallocate.
func (b *readingsBuf) buildRows() [][]float64 {
	b.rows = b.rows[:0]
	start := 0
	for _, end := range b.ends {
		b.rows = append(b.rows, b.flat[start:end:end])
		start = end
	}
	return b.rows
}

// jsonRequest is the JSON body shared by estimate, track and govern.
// Readings is captured raw for the fallback path; Config stays raw so that
// only govern interprets it (estimate and track ignore it, like any other
// field they do not use).
type jsonRequest struct {
	Readings    json.RawMessage `json:"readings"`
	Workers     int             `json:"workers"`
	IncludeMaps bool            `json:"include_maps"`
	Config      json.RawMessage `json:"config"`
}

// parseRequest scans a whole serving body of the common shape — an object
// with any of the keys readings, workers, include_maps and config and no
// others, no escape sequences — in one pass. config must be null or an
// object; its bytes are kept raw (aliasing data) for govern to decode.
// ok=false means "not the simple shape" and defers to encoding/json, NOT a
// validated error: the scanner never claims a document it is not sure of.
// The returned rows alias b's storage. Later duplicate keys win, matching
// encoding/json.
func (b *readingsBuf) parseRequest(data []byte, req *jsonRequest) (rows [][]float64, ok bool) {
	b.flat = b.flat[:0]
	b.ends = b.ends[:0]
	sawReadings := false
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return nil, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return nil, skipSpace(data, i+1) == len(data)
	}
	for {
		key, next, ok := parseSimpleString(data, i)
		if !ok {
			return nil, false
		}
		i = skipSpace(data, next)
		if i >= len(data) || data[i] != ':' {
			return nil, false
		}
		i = skipSpace(data, i+1)
		switch key {
		case "readings":
			b.flat = b.flat[:0]
			b.ends = b.ends[:0]
			i, ok = b.parseRowsAt(data, i)
			sawReadings = ok
		case "workers":
			j := i
			for j < len(data) && isNumByte(data[j]) {
				j++
			}
			n, err := strconv.Atoi(string(data[i:j]))
			if err != nil {
				return nil, false
			}
			req.Workers, i, ok = n, skipSpace(data, j), true
		case "include_maps":
			switch {
			case hasPrefixAt(data, i, "true"):
				req.IncludeMaps, i = true, skipSpace(data, i+4)
			case hasPrefixAt(data, i, "false"):
				req.IncludeMaps, i = false, skipSpace(data, i+5)
			default:
				return nil, false
			}
		case "config":
			j := i + 4
			if !hasPrefixAt(data, i, "null") {
				if j, ok = skipJSONObject(data, i); !ok {
					return nil, false
				}
			}
			req.Config, i = data[i:j:j], skipSpace(data, j)
		default:
			// Unknown key: its value could be arbitrary JSON. Defer.
			return nil, false
		}
		if !ok || i >= len(data) {
			return nil, false
		}
		if data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if data[i] == '}' {
			i = skipSpace(data, i+1)
			break
		}
		return nil, false
	}
	if i != len(data) {
		return nil, false
	}
	if !sawReadings {
		return nil, true
	}
	return b.buildRows(), true
}

// skipJSONObject returns the index just past the object starting at i.
// Escape sequences inside strings defer to the fallback (returns false),
// keeping this a byte scan with no unescaping.
func skipJSONObject(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i + 1, true
			}
		case '"':
			for i++; i < len(data); i++ {
				if data[i] == '\\' {
					return 0, false
				}
				if data[i] == '"' {
					break
				}
			}
			if i >= len(data) {
				return 0, false
			}
		}
	}
	return 0, false
}

// parseSimpleString scans a double-quoted string with no escapes, returning
// the contents and the index just past the closing quote.
func parseSimpleString(data []byte, i int) (string, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return "", 0, false
	}
	j := i + 1
	for j < len(data) && data[j] != '"' && data[j] != '\\' {
		j++
	}
	if j >= len(data) || data[j] != '"' {
		return "", 0, false
	}
	return string(data[i+1 : j]), j + 1, true
}

func hasPrefixAt(data []byte, i int, s string) bool {
	return len(data)-i >= len(s) && string(data[i:i+len(s)]) == s
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// isNumByte covers exactly the bytes JSON numbers are built from. Tokens
// like null, true or NaN contain none of these as a first byte, so they
// bounce to the encoding/json fallback and get its error semantics.
func isNumByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// appendEstimateResponse renders {"quality":"...","results":[...]} without
// reflection. The quality field comes first so clients (and emapsload's
// counter) can classify a response from its fixed-offset prefix without
// parsing the body. strconv's shortest round-trip formatting can differ
// from encoding/json's only in exponent styling (1e-05 vs 0.00001); clients
// decode bit-identical float64 values either way.
func appendEstimateResponse(buf []byte, results []snapshotSummary, quality string) []byte {
	buf = append(buf, `{"quality":"`...)
	buf = append(buf, quality...)
	buf = append(buf, `","results":[`...)
	for i := range results {
		if i > 0 {
			buf = append(buf, ',')
		}
		r := &results[i]
		buf = append(buf, `{"max_c":`...)
		buf = strconv.AppendFloat(buf, r.MaxC, 'g', -1, 64)
		buf = append(buf, `,"min_c":`...)
		buf = strconv.AppendFloat(buf, r.MinC, 'g', -1, 64)
		buf = append(buf, `,"mean_c":`...)
		buf = strconv.AppendFloat(buf, r.MeanC, 'g', -1, 64)
		buf = append(buf, `,"max_cell":`...)
		buf = strconv.AppendInt(buf, int64(r.MaxCell), 10)
		// len, not nil: mirrors the struct tag's omitempty, which drops
		// empty slices whether or not they are nil.
		if len(r.Map) > 0 {
			buf = append(buf, `,"map":[`...)
			for k, v := range r.Map {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, ']', '}', '\n')
}

// codec is the byte format of one serving request and its reply, picked
// once per request from Content-Type (see codecFor). Both codecs decode
// into the same request and encode the same reply, so the serving pipeline
// never sees bytes; errors are the JSON envelope whatever the codec.
type codec interface {
	// decode parses body into req. The request may alias sc's buffers.
	decode(body []byte, step routeStep, sc *scratch, req *request) error
	// encode appends the reply for step to buf.
	encode(buf []byte, step routeStep, rep *reply) ([]byte, error)
	contentType() string
	// errCode is the envelope code for a body this codec cannot decode.
	errCode() string
}

// jsonCodec is the default text protocol: the single-pass scanner above,
// with encoding/json as the authority for anything it does not claim.
type jsonCodec struct{}

func (jsonCodec) contentType() string { return "application/json" }
func (jsonCodec) errCode() string     { return "bad_json" }

func (jsonCodec) decode(body []byte, step routeStep, sc *scratch, req *request) error {
	var in jsonRequest
	rows, ok := sc.rows.parseRequest(body, &in)
	if !ok {
		// Unusual shape (escapes, extra keys, non-numeric tokens, malformed
		// JSON): encoding/json decides whether it is valid and reports its
		// error; unknown fields stay ignored. Decoding into a fresh value
		// keeps in off the heap on the fast path.
		var slow jsonRequest
		if err := json.Unmarshal(body, &slow); err != nil {
			return fmt.Errorf("bad JSON: %w", err)
		}
		in, rows = slow, nil
		if len(in.Readings) > 0 {
			if err := json.Unmarshal(in.Readings, &rows); err != nil {
				return fmt.Errorf("bad JSON: %w", err)
			}
		}
	}
	req.readings, req.workers, req.includeMaps = rows, in.Workers, in.IncludeMaps
	if step == stepGovern && len(in.Config) > 0 && string(in.Config) != "null" {
		req.config = new(wire.GovernConfig)
		if err := json.Unmarshal(in.Config, req.config); err != nil {
			return fmt.Errorf("bad JSON: %w", err)
		}
	}
	return nil
}

// trackReply is the track route's JSON reply, rendered by encoding/json.
type trackReply struct {
	Quality     string         `json:"quality"`
	Results     []wire.Summary `json:"results"`
	Steps       int            `json:"steps"`
	Uncertainty float64        `json:"uncertainty"`
}

func (jsonCodec) encode(buf []byte, step routeStep, rep *reply) ([]byte, error) {
	switch step {
	case stepGovern:
		return appendGovernResponseJSON(buf, rep.govern, rep.quality.String(), rep.governHead), nil
	case stepTrack:
		b, err := json.Marshal(trackReply{rep.quality.String(), rep.results, rep.steps, rep.uncertainty})
		return append(append(buf, b...), '\n'), err
	}
	return appendEstimateResponse(buf, rep.results, rep.quality.String()), nil
}

// binaryCodec is application/x-emaps (internal/wire): EMRQ/EMRS frames on
// estimate, EMGQ/EMGS frames on govern.
type binaryCodec struct{}

func (binaryCodec) contentType() string { return wire.ContentType }
func (binaryCodec) errCode() string     { return "bad_frame" }

func (binaryCodec) decode(body []byte, step routeStep, sc *scratch, req *request) error {
	if step == stepGovern {
		g, err := wire.DecodeGovernRequest(body, &sc.frame)
		if err != nil {
			return err
		}
		req.readings, req.config = g.Readings, g.Config
		return nil
	}
	q, err := wire.DecodeEstimateRequest(body, &sc.frame)
	if err != nil {
		return err
	}
	req.readings, req.workers, req.includeMaps = q.Readings, q.Workers, q.IncludeMaps
	return nil
}

func (binaryCodec) encode(buf []byte, step routeStep, rep *reply) ([]byte, error) {
	if step == stepGovern {
		rep.govern.Quality = rep.quality
		return wire.AppendGovernResponse(buf, rep.govern)
	}
	return wire.AppendEstimateResponse(buf, rep.results, rep.quality), nil
}
