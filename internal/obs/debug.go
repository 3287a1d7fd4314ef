package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"

	"repro/pkg/api"
)

// TracePayload is the /debug/traces/{id} response body: one trace's spans,
// ordered by start time. The shard router returns the same shape with
// downstream tiers' spans merged in.
type TracePayload struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// TraceListPayload is the /debug/traces listing body.
type TraceListPayload struct {
	Tier   string      `json:"tier"`
	Traces []TraceInfo `json:"traces"`
}

// HandleTraceList serves the trace listing (GET /debug/traces).
func (t *Tracer) HandleTraceList(w http.ResponseWriter, _ *http.Request) {
	tier := ""
	if t != nil {
		tier = t.tier
	}
	WriteDebug(w, TraceListPayload{Tier: tier, Traces: t.Traces(100)}, nil)
}

// HandleTraceByID serves one trace's spans (GET /debug/traces/{id}).
func (t *Tracer) HandleTraceByID(w http.ResponseWriter, r *http.Request) {
	p, err := t.Answer(r)
	WriteDebug(w, p, err)
}

// Answer builds the /debug/traces/{id} payload for r: the spans this
// tracer recorded for the trace, ordered by start time, or a typed
// not_found. The payload's TraceID is set either way, so a fleet view can
// still fill it from other tiers.
func (t *Tracer) Answer(r *http.Request) (TracePayload, error) {
	id := r.PathValue("id")
	p := TracePayload{TraceID: id, Spans: t.Spans(id)}
	if len(p.Spans) == 0 {
		return p, api.Errorf(api.CodeNotFound, "no trace %q", id)
	}
	return p, nil
}

// Merge folds another tier's spans of the same trace into p, keeping
// start order. Spans name their own tier, so replica is not recorded.
func (p *TracePayload) Merge(_ string, other TracePayload) {
	p.Spans = append(p.Spans, other.Spans...)
	sort.SliceStable(p.Spans, func(a, b int) bool { return p.Spans[a].Start.Before(p.Spans[b].Start) })
}

// WriteDebug writes a /debug endpoint's answer: v as JSON with status
// 200, or err as the typed error envelope with its code's status.
func WriteDebug(w http.ResponseWriter, v any, err error) {
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		ae := api.AsError(err)
		w.WriteHeader(ae.Code.HTTPStatus())
		v = api.ErrorEnvelope{Error: ae}
	}
	json.NewEncoder(w).Encode(v)
}

// Mount registers the /debug/traces endpoints on a mux (both serve and
// shard expose them on their main listener).
func (t *Tracer) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", t.HandleTraceList)
	mux.HandleFunc("GET /debug/traces/{id}", t.HandleTraceByID)
}

// Mounter is anything that can register its debug endpoints on a mux —
// the tsdb history store, the event journal, and the SLO engine all
// implement it, so binaries can hang extra surfaces off the -debug-addr
// sidecar without obs importing its own subpackages.
type Mounter interface {
	Mount(mux *http.ServeMux)
}

// NewDebugMux builds the opt-in -debug-addr surface: net/http/pprof under
// /debug/pprof/, the registry's /metrics, the tracer's /debug/traces
// endpoints, and any extra Mounters (history, events, SLO). reg and t may
// be nil (their endpoints are then omitted), as may extra entries.
func NewDebugMux(reg *Registry, t *Tracer, extra ...Mounter) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("GET /metrics", reg)
	}
	if t != nil {
		t.Mount(mux)
	}
	for _, m := range extra {
		if m != nil {
			m.Mount(mux)
		}
	}
	return mux
}

// ServeDebug listens on addr with NewDebugMux in a background goroutine and
// returns the server so callers can Close it. Listen failures surface
// through onErr (may be nil); http.ErrServerClosed is filtered out.
func ServeDebug(addr string, reg *Registry, t *Tracer, onErr func(error), extra ...Mounter) *http.Server {
	srv := &http.Server{Addr: addr, Handler: NewDebugMux(reg, t, extra...)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && onErr != nil {
			onErr(err)
		}
	}()
	return srv
}
