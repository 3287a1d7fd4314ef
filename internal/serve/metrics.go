package serve

import (
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

// batchSizeBuckets are the upper bounds of the micro-batch size histogram.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Metrics is the service's instrumentation, backed by the shared
// obs.Registry: per-route request counters and latency histograms, the
// micro-batch size histogram, queue depth, job states, and cache counters.
// The registry renders Prometheus text exposition (with # HELP/# TYPE and
// le-bucketed histograms) so any scraper — or the load generator in
// cmd/sickle-bench — can consume it. All pre-registry series names are
// preserved; sickle_request_seconds_sum{route} is now the _sum series of
// the sickle_request_seconds histogram.
type Metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec
	errors   *obs.CounterVec
	seconds  *obs.HistogramVec
	batch    *obs.Histogram
	inflight *obs.Gauge
	rejected *obs.Counter
	execs    *obs.CounterVec
}

// NewMetrics returns a collector over a fresh registry, with the process
// runtime gauges (goroutines, heap, GC, tensor pool, build info) attached.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg: reg,
		requests: reg.Counter("sickle_requests_total",
			"Requests served, by route.", "route"),
		errors: reg.Counter("sickle_request_errors_total",
			"Requests that returned an error, by route.", "route"),
		seconds: reg.Histogram("sickle_request_seconds",
			"Request latency in seconds, by route.", nil, "route"),
		batch: reg.Histogram("sickle_batch_size",
			"Size of dispatched micro-batches.", batchSizeBuckets).With(),
		inflight: reg.Gauge("sickle_inflight_requests",
			"Requests currently being handled.").With(),
		rejected: reg.Counter("sickle_rejected_requests_total",
			"Requests refused at admission because a bounded queue was full.").With(),
		execs: reg.Counter("sickle_jobs_executions_total",
			"Job runner invocations on this replica, by job type; a reservation counts only once activated.", "type"),
	}
	obs.RegisterRuntime(reg)
	return m
}

// Registry exposes the underlying registry so the server can mount extra
// probes (and the debug mux can share /metrics).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveRequestEx records one request on a route, carrying its trace ID
// as a latency-histogram exemplar (surfaced in /debug/history, not
// /metrics).
func (m *Metrics) ObserveRequestEx(route string, d time.Duration, failed bool, traceID string) {
	m.requests.With(route).Inc()
	m.seconds.With(route).ObserveEx(d.Seconds(), traceID)
	if failed {
		m.errors.With(route).Inc()
	}
}

// ObserveBatch records one dispatched micro-batch of the given size.
func (m *Metrics) ObserveBatch(size int) {
	m.batch.Observe(float64(size))
}

// MeanBatchSize returns the average size of dispatched batches (0 if none).
func (m *Metrics) MeanBatchSize() float64 {
	if n := m.batch.Count(); n > 0 {
		return m.batch.Sum() / float64(n)
	}
	return 0
}

// AddInflight adjusts the in-flight request gauge.
func (m *Metrics) AddInflight(d int64) {
	m.inflight.Add(float64(d))
}

// ObserveRejected counts one request rejected for backpressure.
func (m *Metrics) ObserveRejected() {
	m.rejected.Inc()
}

// RejectedTotal returns the cumulative backpressure rejections.
func (m *Metrics) RejectedTotal() int64 {
	return int64(m.rejected.Value())
}

// ObserveExecution counts one job runner invocation.
func (m *Metrics) ObserveExecution(typ api.JobType) {
	m.execs.With(string(typ)).Inc()
}

// ExecutionsTotal returns the runner invocations for one job type (tests).
func (m *Metrics) ExecutionsTotal(typ api.JobType) int64 {
	return int64(m.execs.With(string(typ)).Value())
}

// SetQueueDepthFunc installs the live queue-depth probe.
func (m *Metrics) SetQueueDepthFunc(f func() int) {
	m.reg.GaugeFunc("sickle_queue_depth",
		"Aggregate depth of the per-model batch queues.",
		func() float64 { return float64(f()) })
}

// SetJobStatsFunc installs the live job-state counter probe.
func (m *Metrics) SetJobStatsFunc(f func() map[string]int) {
	m.reg.GaugeMapFunc("sickle_jobs",
		"Jobs by lifecycle state.", "state",
		func() map[string]float64 {
			out := map[string]float64{}
			for state, n := range f() {
				out[state] = float64(n)
			}
			return out
		})
}

// bindCache installs the sickle_cache_* probes over the server's cache.
func (m *Metrics) bindCache(cache *LRU) {
	m.reg.CounterFunc("sickle_cache_hits_total",
		"Inference cache hits.",
		func() float64 { h, _, _ := cache.Stats(); return float64(h) })
	m.reg.CounterFunc("sickle_cache_misses_total",
		"Inference cache misses.",
		func() float64 { _, mi, _ := cache.Stats(); return float64(mi) })
	m.reg.CounterFunc("sickle_cache_evictions_total",
		"Inference cache evictions.",
		func() float64 { _, _, e := cache.Stats(); return float64(e) })
	m.reg.GaugeFunc("sickle_cache_entries",
		"Entries currently resident in the inference cache.",
		func() float64 { return float64(cache.Len()) })
}
