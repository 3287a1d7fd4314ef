package shard

import (
	"sync"

	"repro/pkg/api"
)

// maxKeyRecords bounds the router's per-key memory. An evicted key only
// loses what the record adds: a takeover needs the client's resubmission
// to carry the payload, settling falls back to asking every live
// replica, and the state clamp restarts from the next answer.
const maxKeyRecords = 8192

// keyRecord is what the router remembers about one idempotency key.
type keyRecord struct {
	// req is the keyed submission as the client sent it, resent to a
	// follower to activate its reservation; nil if this router never saw
	// the submission.
	req *api.SubmitJobRequest
	// unsettled names the followers still holding a bare reservation;
	// meaningful only when known (this router placed the reservations).
	unsettled []string
	known     bool
	// seen is the highest-state snapshot the router has returned.
	seen api.Job
}

// keyBook is a bounded LRU of keyRecords, safe for concurrent use. The
// router keeps one only at replication K≥2, where keyed jobs have
// followers. Lookups never insert; only what the router submits or
// returns does.
type keyBook struct {
	mu   sync.Mutex
	recs *boundedLRU[string, *keyRecord]
}

func newKeyBook(capacity int) *keyBook {
	return &keyBook{recs: newBoundedLRU[string, *keyRecord](capacity)}
}

// lookup returns key's record, or the zero record if there is none.
// Callers hold kb.mu.
func (kb *keyBook) lookup(key string) keyRecord {
	if rec, ok := kb.recs.get(key); ok {
		return *rec
	}
	return keyRecord{}
}

// recLocked returns key's record, creating it if needed. Callers hold
// kb.mu.
func (kb *keyBook) recLocked(key string) *keyRecord {
	rec, ok := kb.recs.get(key)
	if !ok {
		rec = &keyRecord{}
		kb.recs.put(key, rec)
	}
	return rec
}

// Submitted records a keyed submission admitted as jobID and the
// followers that took a reservation for it. A job other than the one
// last returned for the key (the key's earlier job expired and the key
// was reused) starts the key's record afresh.
func (kb *keyBook) Submitted(req *api.SubmitJobRequest, jobID string, followers []string) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	rec := kb.recLocked(req.IdempotencyKey)
	if rec.seen.ID != jobID {
		rec.seen = api.Job{}
	}
	rec.req, rec.unsettled, rec.known = req, followers, true
}

// Request returns the submission recorded for key, or nil.
func (kb *keyBook) Request(key string) *api.SubmitJobRequest {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.lookup(key).req
}

// Unsettled returns the followers still awaiting key's outcome; known is
// false when the router does not know which followers hold reservations.
func (kb *keyBook) Unsettled(key string) (ids []string, known bool) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	rec := kb.lookup(key)
	return append([]string(nil), rec.unsettled...), rec.known
}

// SetUnsettled records which followers are still left to settle.
func (kb *keyBook) SetUnsettled(key string, ids []string) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	rec := kb.recLocked(key)
	rec.unsettled, rec.known = ids, true
}

// Seen returns the highest-state snapshot returned for key (zero if
// none).
func (kb *keyBook) Seen(key string) api.Job {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.lookup(key).seen
}

// Serve returns the snapshot to answer for key given job, the one just
// read: job itself, unless it would move the client backwards from the
// snapshot already returned, which is then returned again.
func (kb *keyBook) Serve(key string, job api.Job) api.Job {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	rec := kb.recLocked(key)
	if rec.seen.State != "" && behind(job.State, rec.seen.State) {
		return rec.seen
	}
	rec.seen = job
	return job
}

// behind reports whether moving from seen to state would go backwards: to
// an earlier lifecycle stage, or from one terminal state to another.
func behind(state, seen api.JobState) bool {
	r, s := stateRank(state), stateRank(seen)
	return r < s || r == s && state.Terminal() && state != seen
}

func stateRank(s api.JobState) int {
	switch {
	case s.Terminal():
		return 2
	case s == api.JobRunning:
		return 1
	}
	return 0
}
