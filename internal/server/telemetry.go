package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"

	"jisc/internal/obs"
)

// ServeTelemetry binds addr (e.g. "127.0.0.1:9090") and serves the
// HTTP observability endpoint alongside the TCP query protocol:
//
//	/metrics       Prometheus text format: per-query counters plus the
//	               latency histograms (feed, probe, build, completion
//	               episode, migrate) from the internal/obs recorders
//	/trace         JSON dump of the recent migration-lifecycle events
//	               (plan proposed/installed, state classification,
//	               completion episodes, subscriber drops)
//	/healthz       liveness probe, "ok" with status 200
//	/debug/pprof/  the standard net/http/pprof profiles
//
// The endpoint is read-only and lock-free on the hot path: counters
// and histograms are atomic snapshots, so scraping never queues behind
// tuples (jisc_state_bytes of a query without a state budget is the
// one in-band read, see gather). Server.Close shuts the endpoint down.
func (s *Server) ServeTelemetry(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server closed")
	}
	if s.telemetry != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("telemetry already serving on %s", s.telemetryLn.Addr())
	}
	s.telemetry = srv
	s.telemetryLn = ln
	s.mu.Unlock()
	go srv.Serve(ln)
	return nil
}

// TelemetryAddr returns the bound telemetry address, nil before
// ServeTelemetry.
func (s *Server) TelemetryAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.telemetryLn == nil {
		return nil
	}
	return s.telemetryLn.Addr()
}

// sortedQueries snapshots the hosted queries, sorted by name for
// stable exposition output.
func (s *Server) sortedQueries() []*query {
	s.mu.Lock()
	qs := make([]*query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].name < qs[j].name })
	return qs
}

// handleMetrics serves metricTable's families. A query whose view
// cannot be read was dropped under the scrape and is left out.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sv := s.serverView()
	var views []view
	for _, q := range s.sortedQueries() {
		if v, err := gather(q, sv, false); err == nil {
			views = append(views, v)
		}
	}
	writeMetrics(w, &view{serverView: sv}, views)
}

// traceDump is the /trace response shape.
type traceDump struct {
	Queries []queryTrace `json:"queries"`
}

type queryTrace struct {
	Query   string      `json:"query"`
	Emitted uint64      `json:"emitted"`
	Dropped uint64      `json:"dropped"`
	Events  []obs.Event `json:"events"`
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	dump := traceDump{Queries: []queryTrace{}}
	for _, q := range s.sortedQueries() {
		ev := q.obs.Tracer.Events()
		if ev == nil {
			ev = []obs.Event{}
		}
		dump.Queries = append(dump.Queries, queryTrace{
			Query:   q.name,
			Emitted: q.obs.Tracer.Emitted(),
			Dropped: q.obs.Tracer.Dropped(),
			Events:  ev,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump)
}
