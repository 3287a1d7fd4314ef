package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// TestJobReservationLifecycle covers a follower owner's side of a keyed
// job: a reservation is admitted and held but never run, settling
// replaces it with the primary's outcome, and a plain submission of a
// still-held key activates it into a runnable job (a takeover).
func TestJobReservationLifecycle(t *testing.T) {
	jm := NewJobManager(1, 1, time.Minute)
	defer jm.Close()
	var execs atomic.Int64
	jm.SetExecHook(func(api.JobType) { execs.Add(1) })
	ctx := context.Background()
	run := func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 3}}, nil
	}
	reserve := func(key string) api.Job {
		t.Helper()
		job, dup, err := jm.SubmitWith(ctx, api.JobSubsample, run, SubmitOptions{Key: key, ReserveFor: "job-9@r0"})
		if err != nil || dup || job.State != api.JobPending || job.ReservedFor != "job-9@r0" {
			t.Fatalf("reserve %s = %+v, dup %v, %v", key, job, dup, err)
		}
		return job
	}

	// maxJobs is 1, yet reservations are held keys, not load: several fit.
	a, b, c := reserve("ka"), reserve("kb"), reserve("kc")
	if again, dup, _ := jm.SubmitWith(ctx, api.JobSubsample, run, SubmitOptions{Key: "ka", ReserveFor: "job-9@r0"}); !dup || again.ID != a.ID {
		t.Fatalf("second reservation of ka = %+v, dup %v; want the first", again, dup)
	}
	if n := len(jm.List()); n != 3 {
		t.Fatalf("List shows %d entries, want the 3 reservations", n)
	}
	if stats := jm.Stats(); len(stats) != 0 {
		t.Fatalf("Stats counts reservations: %v", stats)
	}
	if _, err := jm.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := jm.Get(a.ID); got.State != api.JobPending {
		t.Fatalf("canceled reservation = %+v, want it still held", got)
	}

	// Settling replaces the reservation with the primary's outcome.
	now := time.Now()
	out := api.Job{State: api.JobSucceeded, StartedAt: now, FinishedAt: now}
	want := &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 5}}
	settled, err := jm.Settle("kb", out, want)
	if err != nil || settled.ID != b.ID || settled.State != api.JobSucceeded || settled.ReservedFor == "" {
		t.Fatalf("settle kb = %+v, %v", settled, err)
	}
	if res, err := jm.Result(b.ID); err != nil || res.Subsample.Cubes != 5 {
		t.Fatalf("settled result = %+v, %v", res, err)
	}
	if again, err := jm.Settle("kb", api.Job{State: api.JobFailed}, nil); err != nil || again.State != api.JobSucceeded {
		t.Fatalf("second settle of kb = %+v, %v; want the first outcome kept", again, err)
	}
	if dupJob, dup, err := jm.SubmitWith(ctx, api.JobSubsample, run, SubmitOptions{Key: "kb"}); err != nil || !dup || dupJob.State != api.JobSucceeded {
		t.Fatalf("plain submission of a settled key = %+v, dup %v, %v; want the settled copy", dupJob, dup, err)
	}
	if _, err := jm.Settle("kb", api.Job{State: api.JobRunning}, nil); api.AsError(err).Code != api.CodeInvalidArgument {
		t.Fatalf("settle with a live state = %v, want invalid_argument", err)
	}
	if _, err := jm.Settle("nope", out, want); api.AsError(err).Code != api.CodeJobNotFound {
		t.Fatalf("settle of an unclaimed key = %v, want job_not_found", err)
	}

	// A plain submission of a held key activates the reservation in place.
	act, dup, err := jm.SubmitWith(ctx, api.JobSubsample, run, SubmitOptions{Key: "kc"})
	if err != nil || !dup || act.ID != c.ID || act.ReservedFor != "" {
		t.Fatalf("activation of kc = %+v, dup %v, %v", act, dup, err)
	}
	if final := waitTerminal(t, jm, c.ID); final.State != api.JobSucceeded {
		t.Fatalf("activated job = %+v", final)
	}
	if mine, err := jm.Settle("kc", out, want); err != nil || mine.ReservedFor != "" {
		t.Fatalf("settle of a job run here = %+v, %v; want it left as it is", mine, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions, want 1: only the activated reservation runs", n)
	}
	if stats := jm.Stats(); stats[string(api.JobSucceeded)] != 1 || len(stats) != 1 {
		t.Fatalf("Stats = %v, want the one activated job", stats)
	}
}

// TestReservationRecoveryFromWAL: a follower's held keys survive a crash.
// A reservation comes back held (not run), a settled copy comes back with
// its result, and an activated reservation comes back as the job it
// became.
func TestReservationRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p := startDurable(t, dir)
	c := client.New(p.URL)
	reserve := func(key string) *api.Job {
		t.Helper()
		job, err := c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobSubsample,
			Subsample: &testSub, IdempotencyKey: key, ReserveFor: "job-9@r0"})
		if err != nil {
			t.Fatalf("reserve %s: %v", key, err)
		}
		return job
	}
	held, settled, activated := reserve("held"), reserve("settled"), reserve("activated")
	now := time.Now()
	result := &api.JobResult{Subsample: &api.SubsampleResponse{Dataset: "GESTS-2048", Cubes: 2, Points: 32}}
	if _, err := c.SettleKey(ctx, "settled", &api.SettleRequest{
		Job: api.Job{State: api.JobSucceeded, StartedAt: now, FinishedAt: now}, Result: result}); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if _, err := c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobSubsample,
		Subsample: &testSub, IdempotencyKey: "activated"}); err != nil {
		t.Fatalf("activate: %v", err)
	}
	if final := waitTerminal(t, p.Server.Jobs(), activated.ID); final.State != api.JobSucceeded {
		t.Fatalf("activated job = %+v", final)
	}
	p.Kill()

	p = startDurable(t, dir)
	defer p.Close(ctx)
	jm := p.Server.Jobs()
	if got, err := jm.Get(held.ID); err != nil || got.State != api.JobPending || got.ReservedFor != "job-9@r0" {
		t.Fatalf("recovered reservation = %+v, %v; want it still held", got, err)
	}
	if got, err := jm.Get(settled.ID); err != nil || got.State != api.JobSucceeded || got.ReservedFor == "" {
		t.Fatalf("recovered settled copy = %+v, %v", got, err)
	}
	if res, err := jm.Result(settled.ID); err != nil || res.Subsample.Points != 32 {
		t.Fatalf("recovered settled result = %+v, %v", res, err)
	}
	if got, err := jm.Get(activated.ID); err != nil || got.State != api.JobSucceeded || got.ReservedFor != "" {
		t.Fatalf("recovered activated job = %+v, %v", got, err)
	}
	listed, err := client.New(p.URL).Jobs(ctx)
	if err != nil || len(listed) != 1 || listed[0].ID != activated.ID {
		t.Fatalf("GET /v2/jobs = %+v, %v; want only the activated job", listed, err)
	}
	if n := p.Server.Metrics().ExecutionsTotal(api.JobSubsample); n != 0 {
		t.Fatalf("recovery ran %d jobs, want none: nothing was left unfinished", n)
	}
}
