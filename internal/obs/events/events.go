// Package events is the operational flight recorder shared by the sickle
// tiers: a bounded in-memory ring of structured events (replica ejection
// and re-admission, routing failover, checkpoint hot-swap, job panics,
// backpressure stalls, SLO breaches) with trace-ID cross-links into
// /debug/traces. The ring is fixed-memory — when full, the oldest events
// are overwritten and a dropped counter (sickle_obs_events_dropped_total)
// makes the eviction visible. GET /debug/events serves the tail as JSON;
// the shard router scatter-gathers every replica's journal into one
// fleet-wide view.
package events

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Type classifies an event. The set is open — tiers may emit their own —
// but these names are the vocabulary the console and tests key on.
type Type string

const (
	TypeFailover    Type = "failover"    // request retried on a non-primary ring node
	TypeEjection    Type = "ejection"    // replica removed from the ring
	TypeReadmission Type = "readmission" // replica re-admitted to the ring
	TypeHotSwap     Type = "hotswap"     // model checkpoint hot-swapped under a live name
	TypeJobPanic    Type = "job_panic"   // a job runner panicked (recovered, typed internal)
	TypeStall       Type = "stall"       // producer stalled on backpressure
	TypeSLOBreach   Type = "slo_breach"  // an objective's burn rate crossed its threshold
	TypeSLORecover  Type = "slo_recover" // a breached objective returned under threshold
	TypeDegraded    Type = "degraded"    // tier health flipped to degraded
	TypeRecovered   Type = "recovered"   // tier health returned to ok
	TypeRecovery    Type = "recovery"    // a job was recovered from the WAL at startup
	TypeDedupHit    Type = "dedup_hit"   // a duplicate submission was served from prior work
	TypeTakeover    Type = "takeover"    // a follower's reservation was activated for a dead primary

	TypeReplicaJoin  Type = "replica_join"  // a replica joined the ring via the admin API
	TypeReplicaDrain Type = "replica_drain" // a replica began bleeding sticky jobs before removal
	TypeReplicaLeave Type = "replica_leave" // a replica was removed from the membership
	TypeRebalance    Type = "rebalance"     // ring membership changed and keyspace ownership moved
)

// Event is one journal entry. Attrs carry event-specific detail (replica
// ID, model name, burn rates); TraceID, when set, links to the
// /debug/traces/{id} view of the request that triggered the event.
type Event struct {
	Seq     uint64            `json:"seq"`
	Time    time.Time         `json:"time"`
	Tier    string            `json:"tier"`
	Type    Type              `json:"type"`
	Msg     string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Journal records events into a bounded ring; when full, the oldest are
// overwritten (counted, never silent). A nil *Journal is a valid no-op
// recorder so instrumentation never branches. Safe for concurrent use.
type Journal struct {
	tier string

	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	seq     uint64
	dropped uint64

	now func() time.Time // injectable clock (tests)
}

// DefaultCapacity bounds the ring when the caller does not.
const DefaultCapacity = 1024

// NewJournal builds a journal whose events carry the given tier label.
// capacity <= 0 selects DefaultCapacity.
func NewJournal(tier string, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{tier: tier, buf: make([]Event, 0, capacity), now: time.Now}
}

// Emit records one event. kv pairs become Attrs (odd tails are dropped).
func (j *Journal) Emit(typ Type, msg, traceID string, kv ...string) {
	if j == nil {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	e := Event{Time: j.now(), Tier: j.tier, Type: typ, Msg: msg,
		TraceID: traceID, Attrs: attrs}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if !j.full && len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
		if len(j.buf) == cap(j.buf) {
			j.full = true
		}
	} else {
		j.buf[j.next] = e
		j.full = true
		j.dropped++
	}
	j.next = (j.next + 1) % cap(j.buf)
	j.mu.Unlock()
}

// Dropped reports how many events ring eviction has overwritten (0 on nil).
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns up to limit most recent events (all when limit <= 0),
// oldest first, optionally filtered by type and a since cutoff.
func (j *Journal) Events(limit int, typ Type, since time.Time) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	var snap []Event
	if !j.full {
		snap = append(snap, j.buf...)
	} else {
		snap = append(snap, j.buf[j.next:]...)
		snap = append(snap, j.buf[:j.next]...)
	}
	j.mu.Unlock()
	out := snap[:0]
	for _, e := range snap {
		if typ != "" && e.Type != typ {
			continue
		}
		if !since.IsZero() && e.Time.Before(since) {
			continue
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return append([]Event(nil), out...)
}

// Register mounts the eviction counter on reg as
// sickle_obs_events_dropped_total. Nil-safe.
func (j *Journal) Register(reg *obs.Registry) {
	reg.CounterFunc("sickle_obs_events_dropped_total",
		"Events overwritten by journal-ring eviction before they could be read.",
		func() float64 { return float64(j.Dropped()) })
}

// Payload is the /debug/events response body. A fleet view returns the
// same shape with every replica's events merged in (Payload.Merge: each
// event keeps its own tier, and gains a "replica" attr naming its origin).
type Payload struct {
	Tier    string  `json:"tier"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`

	limit int // the query's limit, which a merge keeps to
}

// HandleEvents serves the journal tail (GET /debug/events).
func (j *Journal) HandleEvents(w http.ResponseWriter, r *http.Request) {
	p, err := j.Answer(r)
	obs.WriteDebug(w, p, err)
}

// Answer builds the /debug/events payload for r. Query params: limit
// (default 256), type (exact event type), since (RFC3339 or a Go
// duration like "5m" meaning that long ago; unparsable means no cutoff).
// It never fails; the error is there for the shape every debug endpoint
// shares.
func (j *Journal) Answer(r *http.Request) (Payload, error) {
	limit := 256
	if s := r.URL.Query().Get("limit"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			limit = n
		}
	}
	typ := Type(r.URL.Query().Get("type"))
	since, _ := ParseSince(r.URL.Query().Get("since"), time.Now())
	tier := ""
	if j != nil {
		tier = j.tier
	}
	payload := Payload{Tier: tier, Dropped: j.Dropped(),
		Events: j.Events(limit, typ, since), limit: limit}
	if payload.Events == nil {
		payload.Events = []Event{}
	}
	return payload, nil
}

// Merge folds another journal's payload into p: its events, each tagged
// with a "replica" attr, merged in time order and kept to p's limit
// (the newest win), and its dropped count.
func (p *Payload) Merge(replica string, other Payload) {
	for i := range other.Events {
		if other.Events[i].Attrs == nil {
			other.Events[i].Attrs = map[string]string{}
		}
		other.Events[i].Attrs["replica"] = replica
	}
	p.Dropped += other.Dropped
	if len(other.Events) == 0 {
		return
	}
	p.Events = Merge(p.Events, other.Events)
	if p.limit > 0 && len(p.Events) > p.limit {
		p.Events = p.Events[len(p.Events)-p.limit:]
	}
}

// Mount registers the /debug/events endpoint on a mux.
func (j *Journal) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/events", j.HandleEvents)
}

// ParseSince interprets a since query value: "" means no cutoff, a Go
// duration ("5m") means that long before now, anything else must be
// RFC3339. Shared with the history endpoint.
func ParseSince(s string, now time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return now.Add(-d), nil
	}
	return time.Parse(time.RFC3339, s)
}

// Merge combines event lists (the router's own plus every replica's) into
// one time-ordered slice, stable across equal timestamps.
func Merge(lists ...[]Event) []Event {
	var out []Event
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	return out
}
