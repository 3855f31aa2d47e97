// Method+pattern routing and Request.PathValue are Go 1.22 net/http; the
// module stays at go 1.21, so this file states the floor itself.

//go:build go1.22

package main

import (
	"net/http"
	"sort"

	"repro/internal/obs"
)

// routeHandler serves one routeTable row.
type routeHandler func(s *server, w http.ResponseWriter, r *http.Request)

// routeInfo is one route the daemon serves: its method+pattern, the metrics
// route label, and its handler.
type routeInfo struct {
	method string
	path   string
	label  string
	handle routeHandler
}

// routeTable is the daemon's whole HTTP surface. routes builds the
// dispatcher from it, `emapsd -print-routes` prints it, and the docs CI job
// greps every line into docs/API.md so the reference cannot silently drift.
var routeTable = []routeInfo{
	{http.MethodGet, "/v1/healthz", "healthz", (*server).handleHealthz},
	{http.MethodGet, "/v1/metrics", "metrics", (*server).handleMetrics},
	{http.MethodGet, "/v1/stats", "stats", (*server).handleStats},
	{http.MethodGet, "/v1/shard", "shard", (*server).handleShard},
	{http.MethodPost, "/v1/monitors", "create", (*server).handleCreate},
	{http.MethodGet, "/v1/monitors", "list", (*server).handleList},
	{http.MethodGet, "/v1/debug/requests", "debug", (*server).handleDebugRequests},
	{http.MethodGet, "/v1/monitors/{id}", "monitor", onMonitor((*server).handleMonitorStats)},
	{http.MethodDelete, "/v1/monitors/{id}", "delete", onMonitor((*server).handleDelete)},
	{http.MethodPost, "/v1/monitors/{id}/estimate", "estimate", serving(stepEstimate)},
	{http.MethodPost, "/v1/monitors/{id}/track", "track", serving(stepTrack)},
	{http.MethodPost, "/v1/monitors/{id}/simulate", "simulate", onMonitor((*server).handleSimulate)},
	{http.MethodPost, "/v1/monitors/{id}/govern", "govern", serving(stepGovern)},
}

// routes builds the dispatcher: one method+pattern per table row, each
// stamping its label on the request, and a catch-all that answers every
// other method or path — including the pre-/v1 unversioned spellings — with
// the 404 not_found envelope.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		mux.HandleFunc(rt.method+" "+rt.path, func(w http.ResponseWriter, r *http.Request) {
			setRoute(w, rt.label)
			rt.handle(s, w, r)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "not_found", "no route %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// setRoute records the metrics route label for the request being served.
func setRoute(w http.ResponseWriter, label string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.route = label
	}
}

// onMonitor adapts a per-monitor handler to a route: it resolves {id},
// answers 421 for a monitor another shard owns and 404 for an unknown one,
// and otherwise calls h with the monitor's entry.
func onMonitor(h func(s *server, w http.ResponseWriter, r *http.Request, e *monitorEntry)) routeHandler {
	return func(s *server, w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		tr := traceOf(w)
		if tr != nil {
			tr.Monitor = id
		}
		if !s.owns(id) {
			tr.Mark(obs.StageShardRoute)
			// 421: the monitor hashes to another replica. The owner index in
			// the message is the routing hint a client-side router needs.
			s.metrics.wrongShard.Add(1)
			setRoute(w, "wrongshard")
			httpError(w, http.StatusMisdirectedRequest, "wrong_shard",
				"monitor %q belongs to shard %d of %d (this is shard %d)",
				id, s.ring.owner(id), s.shardN, s.shardIdx)
			return
		}
		s.mu.Lock()
		e := s.monitors[id]
		s.mu.Unlock()
		// The shard_route span only exists on sharded replicas: unsharded
		// routing is a map lookup, and stamping a ~0 span on every request
		// would buy two clock reads of pure overhead.
		if s.shardN > 1 {
			tr.Mark(obs.StageShardRoute)
		}
		if e == nil {
			setRoute(w, "notfound")
			httpError(w, http.StatusNotFound, "not_found", "no monitor %q", id)
			return
		}
		h(s, w, r, e)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleDelete(w http.ResponseWriter, _ *http.Request, e *monitorEntry) {
	s.mu.Lock()
	delete(s.monitors, e.id)
	delete(s.residents, e.id)
	s.mu.Unlock()
	s.removeMonitorFile(e.id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": e.id})
}

// handleShard reports this replica's shard assignment and the monitor IDs
// it owns — the routing table a client-side router (emapsload's multi-addr
// mode, or any proxy) needs to pin monitors to replicas. Owned IDs come
// from the registry, so a paged-out monitor is still listed.
func (s *server) handleShard(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.monitors))
	for id := range s.monitors {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{
		"shard":    s.shardIdx,
		"of":       s.shardN,
		"monitors": ids,
	})
}
