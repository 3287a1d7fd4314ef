package shard

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Metrics is the router's instrumentation, backed by the shared
// obs.Registry: per-replica liveness and routing counters,
// failover/ejection/re-admission counters, and per-route request
// accounting with latency histograms. Rendered as Prometheus text
// exposition (with # HELP/# TYPE) on GET /metrics. All pre-registry
// series names are preserved; sickle_shard_request_seconds_sum{route} is
// now the _sum series of the sickle_shard_request_seconds histogram.
type Metrics struct {
	reg *obs.Registry

	up           *obs.GaugeVec
	routed       *obs.CounterVec
	failed       *obs.CounterVec
	failovers    *obs.Counter
	ejections    *obs.Counter
	readmissions *obs.Counter
	requests     *obs.CounterVec
	errors       *obs.CounterVec
	seconds      *obs.HistogramVec

	ownerDedupHits      *obs.Counter
	ownerReplications   *obs.CounterVec
	ownerReplFailures   *obs.Counter
	rebalances          *obs.Counter
	rebalanceMovedShare *obs.Gauge
}

// NewMetrics returns a collector over a fresh registry, with the process
// runtime gauges (goroutines, heap, GC, build info) attached.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg: reg,
		up: reg.Gauge("sickle_shard_replica_up",
			"Replica liveness (1 up, 0 ejected).", "replica"),
		routed: reg.Counter("sickle_shard_routed_requests_total",
			"Requests successfully served, by replica.", "replica"),
		failed: reg.Counter("sickle_shard_failed_requests_total",
			"Downstream calls that failed, by replica.", "replica"),
		failovers: reg.Counter("sickle_shard_failovers_total",
			"Requests retried on a non-primary ring node.").With(),
		ejections: reg.Counter("sickle_shard_ejections_total",
			"Replicas ejected from the ring.").With(),
		readmissions: reg.Counter("sickle_shard_readmissions_total",
			"Replicas re-admitted to the ring.").With(),
		requests: reg.Counter("sickle_shard_requests_total",
			"Router requests, by route.", "route"),
		errors: reg.Counter("sickle_shard_request_errors_total",
			"Router requests that returned an error, by route.", "route"),
		seconds: reg.Histogram("sickle_shard_request_seconds",
			"Router request latency in seconds, by route.", nil, "route"),
		ownerDedupHits: reg.Counter("sickle_shard_owner_dedup_hits_total",
			"Keyed resubmissions answered from a job already held by an owner-set member.").With(),
		ownerReplications: reg.Counter("sickle_shard_owner_replications_total",
			"Reservations of keyed submissions placed on a non-primary owner, by replica.", "replica"),
		ownerReplFailures: reg.Counter("sickle_shard_owner_replication_failures_total",
			"Reservation attempts that failed (the primary's job still exists).").With(),
		rebalances: reg.Counter("sickle_shard_rebalances_total",
			"Ring membership changes that moved keyspace ownership (joins and leaves).").With(),
		rebalanceMovedShare: reg.Gauge("sickle_shard_rebalance_moved_share",
			"Estimated share of the keyspace whose primary owner moved in the last rebalance.").With(),
	}
	obs.RegisterRuntime(reg)
	return m
}

// Registry exposes the underlying registry so the router can mount extra
// probes (and the debug mux can share /metrics).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// SetUp records a replica's liveness gauge.
func (m *Metrics) SetUp(replica string, up bool) {
	v := 0.0
	if up {
		v = 1
	}
	m.up.With(replica).Set(v)
}

// ObserveRouted counts one request successfully served by replica.
func (m *Metrics) ObserveRouted(replica string) {
	m.routed.With(replica).Inc()
}

// ObserveFailed counts one downstream call that failed on replica (and was
// failed over or surfaced to the client).
func (m *Metrics) ObserveFailed(replica string) {
	m.failed.With(replica).Inc()
}

// ObserveFailover counts one attempt on a non-primary ring node.
func (m *Metrics) ObserveFailover() {
	m.failovers.Inc()
}

// ObserveEjection counts one replica leaving the ring.
func (m *Metrics) ObserveEjection() {
	m.ejections.Inc()
}

// ObserveReadmission counts one replica rejoining the ring.
func (m *Metrics) ObserveReadmission() {
	m.readmissions.Inc()
}

// ObserveOwnerDedupHit counts one keyed resubmission answered from a job
// already held somewhere in the key's owner set.
func (m *Metrics) ObserveOwnerDedupHit() {
	m.ownerDedupHits.Inc()
}

// ObserveOwnerReplication counts one reservation placed on a
// non-primary owner.
func (m *Metrics) ObserveOwnerReplication(replica string) {
	m.ownerReplications.With(replica).Inc()
}

// ObserveOwnerReplicationFailure counts one reservation attempt that
// failed (best-effort: the primary's job still exists).
func (m *Metrics) ObserveOwnerReplicationFailure() {
	m.ownerReplFailures.Inc()
}

// ObserveRebalance records one membership change together with the
// estimated share of the keyspace whose primary owner it moved.
func (m *Metrics) ObserveRebalance(movedShare float64) {
	m.rebalances.Inc()
	m.rebalanceMovedShare.Set(movedShare)
}

// OwnerDedupHitsTotal returns the owner-set dedup counter (tests).
func (m *Metrics) OwnerDedupHitsTotal() int64 {
	return int64(m.ownerDedupHits.Value())
}

// OwnerReplicationsTotal returns the replication counter for one replica
// (tests).
func (m *Metrics) OwnerReplicationsTotal(replica string) int64 {
	return int64(m.ownerReplications.With(replica).Value())
}

// RebalancesTotal returns the cumulative rebalance count (tests).
func (m *Metrics) RebalancesTotal() int64 {
	return int64(m.rebalances.Value())
}

// ObserveRequestEx records one router request on a route, carrying its
// trace ID as a latency-histogram exemplar (surfaced in /debug/history,
// not /metrics).
func (m *Metrics) ObserveRequestEx(route string, d time.Duration, failed bool, traceID string) {
	m.requests.With(route).Inc()
	m.seconds.With(route).ObserveEx(d.Seconds(), traceID)
	if failed {
		m.errors.With(route).Inc()
	}
}

// RoutedTotal returns the routed counter for one replica (tests).
func (m *Metrics) RoutedTotal(replica string) int64 {
	return int64(m.routed.With(replica).Value())
}

// FailoversTotal returns the cumulative failover count (tests).
func (m *Metrics) FailoversTotal() int64 {
	return int64(m.failovers.Value())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
