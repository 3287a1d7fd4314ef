package shard

import (
	"testing"

	"repro/pkg/api"
)

// TestKeyBookServeIsMonotone: a key's answers never move back a
// lifecycle stage, nor from one terminal state to another; the earlier
// snapshot is answered again instead.
func TestKeyBookServeIsMonotone(t *testing.T) {
	kb := newKeyBook(4)
	steps := []struct {
		read   api.JobState
		id     string
		wantID string
	}{
		{api.JobPending, "job-1@r0", "job-1@r0"},
		{api.JobRunning, "job-1@r0", "job-1@r0"},
		{api.JobPending, "job-4@r1", "job-1@r0"}, // a takeover starting over
		{api.JobRunning, "job-4@r1", "job-4@r1"},
		{api.JobSucceeded, "job-4@r1", "job-4@r1"},
		{api.JobRunning, "job-1@r0", "job-4@r1"}, // the primary re-running
		{api.JobFailed, "job-1@r0", "job-4@r1"},
		{api.JobSucceeded, "job-1@r0", "job-1@r0"},
	}
	for i, st := range steps {
		got := kb.Serve("k", api.Job{ID: st.id, State: st.read})
		if got.ID != st.wantID {
			t.Fatalf("step %d: read %s from %s, answered %s (%s); want %s",
				i, st.read, st.id, got.ID, got.State, st.wantID)
		}
	}
}

// TestKeyBookEvictsLeastRecentlyUsed: the book holds at most its
// capacity, dropping the key used least recently; lookups of unknown
// keys insert nothing.
func TestKeyBookEvictsLeastRecentlyUsed(t *testing.T) {
	kb := newKeyBook(2)
	kb.Submitted(&api.SubmitJobRequest{IdempotencyKey: "a"}, "job-1@r0", []string{"r1"})
	kb.Submitted(&api.SubmitJobRequest{IdempotencyKey: "b"}, "job-2@r0", nil)
	kb.Request("a") // touch a, so b is the oldest
	kb.Seen("x")
	kb.Unsettled("y")
	if kb.Request("z") != nil || kb.recs.len() != 2 {
		t.Fatalf("lookups of unknown keys changed the book: %d records", kb.recs.len())
	}
	kb.Submitted(&api.SubmitJobRequest{IdempotencyKey: "c"}, "job-3@r0", nil)
	if kb.recs.len() != 2 {
		t.Fatalf("book holds %d records, want 2", kb.recs.len())
	}
	if ids, known := kb.Unsettled("a"); !known || len(ids) != 1 {
		t.Fatalf("a lost its record: %v, known %v", ids, known)
	}
	if kb.Request("b") != nil {
		t.Fatal("b survived eviction")
	}
}

// TestKeyBookNewJobResetsKey: a key reused for a new job (its earlier
// job expired) answers the new job's states from the start, while a
// resubmission landing on the job already returned keeps the clamp.
func TestKeyBookNewJobResetsKey(t *testing.T) {
	kb := newKeyBook(4)
	req := &api.SubmitJobRequest{IdempotencyKey: "k"}
	kb.Submitted(req, "job-1@r0", []string{"r1"})
	kb.Serve("k", api.Job{ID: "job-1@r0", State: api.JobSucceeded})
	kb.SetUnsettled("k", nil)

	kb.Submitted(req, "job-1@r0", nil)
	if got := kb.Serve("k", api.Job{ID: "job-1@r0", State: api.JobRunning}); got.State != api.JobSucceeded {
		t.Fatalf("the same job moved back to %s", got.State)
	}

	kb.Submitted(req, "job-7@r0", []string{"r2"})
	if got := kb.Serve("k", api.Job{ID: "job-7@r0", State: api.JobPending}); got.ID != "job-7@r0" || got.State != api.JobPending {
		t.Fatalf("new job answered as %s (%s), want job-7@r0 (pending)", got.ID, got.State)
	}
	if ids, known := kb.Unsettled("k"); !known || len(ids) != 1 || ids[0] != "r2" {
		t.Fatalf("unsettled = %v, %v; want the new job's follower r2", ids, known)
	}
}
