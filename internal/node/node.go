// Package node is the substrate both HTTP tiers embed (serve.Server, the
// replica, and shard.Router): the observability stack (tracer, event
// journal, metrics history, SLO engine), the request instrument, the JSON
// envelope helpers, and a route table that generates the typed 405 and
// /v2/ 404 fallbacks from the declared routes.
package node

import (
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	olog "repro/internal/obs/log"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/pkg/api"
)

// Metrics is what a tier's collector gives the node: the registry the
// stack registers on and samples, and per-route request accounting. A
// collector that also has AddInflight(int64) gets its in-flight gauge
// kept by the instrument.
type Metrics interface {
	Registry() *obs.Registry
	ObserveRequestEx(route string, d time.Duration, failed bool, traceID string)
}

// Obs carries the flight-recorder settings of both tiers' Configs. Zero
// values select the components' defaults.
type Obs struct {
	Logger          *olog.Logger // request logs; nil discards them
	TraceCapacity   int
	HistoryInterval time.Duration
	HistoryCapacity int
	EventCapacity   int
	SLOs            []slo.Objective
}

// Node is one tier's observability stack and request plumbing.
type Node struct {
	tracer  *obs.Tracer
	journal *events.Journal
	history *tsdb.Store
	sloEng  *slo.Engine

	srv        *http.Server // set by Bind
	met        Metrics
	inflight   func(int64) // nil unless met keeps an in-flight gauge
	logger     *olog.Logger
	spanPrefix string
}

// New builds a tier's stack over met's registry; the SLO engine reads
// the tier's request metrics by names. Request spans are named
// spanPrefix+route. StartRecorder begins history sampling.
func New(tier, spanPrefix string, met Metrics, names slo.MetricNames, o Obs) *Node {
	reg := met.Registry()
	n := &Node{
		tracer:     obs.NewTracer(tier, o.TraceCapacity),
		journal:    events.NewJournal(tier, o.EventCapacity),
		met:        met,
		logger:     o.Logger,
		spanPrefix: spanPrefix,
	}
	if g, ok := met.(interface{ AddInflight(int64) }); ok {
		n.inflight = g.AddInflight
	}
	n.tracer.RegisterDropped(reg)
	n.journal.Register(reg)
	n.history = tsdb.NewStore(tier, reg, o.HistoryInterval, o.HistoryCapacity)
	n.sloEng = slo.NewEngine(tier, n.history, names, o.SLOs, reg, n.journal)
	return n
}

// Tracer exposes the span ring behind /debug/traces.
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Journal exposes the event journal behind /debug/events.
func (n *Node) Journal() *events.Journal { return n.journal }

// History exposes the metrics-history store behind /debug/history.
func (n *Node) History() *tsdb.Store { return n.history }

// SLO exposes the burn-rate engine behind /debug/slo.
func (n *Node) SLO() *slo.Engine { return n.sloEng }

// StartRecorder starts the history sampler, which drives SLO evaluation.
func (n *Node) StartRecorder() { n.history.Start() }

// StopRecorder stops the history sampler.
func (n *Node) StopRecorder() { n.history.Stop() }

// MountDebug registers the tier's own /debug/{traces,events,history,slo}.
func (n *Node) MountDebug(mux *http.ServeMux) {
	n.tracer.Mount(mux)
	n.journal.Mount(mux)
	n.history.Mount(mux)
	n.sloEng.Mount(mux)
}

// Bind sets the tier's HTTP server: h listening on addr.
func (n *Node) Bind(addr string, h http.Handler) { n.srv = &http.Server{Addr: addr, Handler: h} }

// HTTP exposes the bound server (the tier's Shutdown stops it).
func (n *Node) HTTP() *http.Server { return n.srv }

// ListenAndServe blocks serving on the bound address until Shutdown.
func (n *Node) ListenAndServe() error {
	l, err := net.Listen("tcp", n.srv.Addr)
	if err != nil {
		return err
	}
	return n.Serve(l)
}

// Serve blocks serving on l until Shutdown.
func (n *Node) Serve(l net.Listener) error {
	if err := n.srv.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// HandlerFunc is a handler that reports the typed error it wrote, if
// any, so the instrument can count the request as failed.
type HandlerFunc func(http.ResponseWriter, *http.Request) error

// Instrument wraps h with latency/error accounting, a span named
// spanPrefix+route (joining the caller's trace when an X-Sickle-Trace
// header is present, minting one otherwise), and a trace-ID-stamped
// request log.
func (n *Node) Instrument(route string, h HandlerFunc) http.HandlerFunc {
	spanName := n.spanPrefix + route
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tc, ok := api.ParseTraceHeader(r.Header.Get(api.TraceHeader)); ok {
			ctx = api.WithTrace(ctx, tc)
		}
		ctx, span := n.tracer.StartSpan(ctx, spanName)
		span.SetAttr("method", r.Method)
		t0 := time.Now()
		if n.inflight != nil {
			n.inflight(1)
			defer n.inflight(-1)
		}
		err := h(w, r.WithContext(ctx))
		d := time.Since(t0)
		n.met.ObserveRequestEx(route, d, err != nil, span.TraceID())
		if err != nil {
			span.SetAttr("error", string(api.AsError(err).Code))
		}
		span.End()
		if n.logger.Enabled(olog.LevelDebug) || err != nil {
			kv := []any{"route", route, "method", r.Method,
				"trace", span.TraceID(), "seconds", d.Seconds()}
			if err != nil {
				n.logger.Warn("request failed", append(kv, "error", err.Error())...)
			} else {
				n.logger.Debug("request", kv...)
			}
		}
	}
}
