package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/events"
	"repro/internal/serve"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestShardKeyedJobRunsOncePerFleet: at K=2 a keyed job executes on its
// primary only. The follower holds a reservation, which the first
// terminal read settles into a copy of the outcome, and job-state counts
// and listings show one job per key across the fleet.
func TestShardKeyedJobRunsOncePerFleet(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()

	reps := make([]*serve.InProc, 3)
	urls := make([]string, 3)
	for i := range reps {
		reps[i] = startReplica(t, "", ckpt)
		urls[i] = reps[i].URL
		defer reps[i].Close(ctx)
	}
	rt := newTestRouterK(t, urls, 2)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))

	const jobs = 4
	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16}
	owners := rt.ReplicaSet().Sequence(subsampleKey(&sub), 2)
	inproc := func(rep *Replica) *serve.InProc {
		for _, p := range reps {
			if p.URL == rep.URL {
				return p
			}
		}
		t.Fatalf("no in-proc replica at %s", rep.URL)
		return nil
	}
	follower := inproc(owners[1])

	for i := 0; i < jobs; i++ {
		sub.Seed = int64(i + 1)
		key := api.NewIdempotencyKey()
		job, err := c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: key})
		if err != nil {
			t.Fatalf("keyed submit %d: %v", i, err)
		}
		if _, rid := splitJobID(job.ID); rid != owners[0].ID {
			t.Fatalf("job %q not admitted by the primary %s", job.ID, owners[0].ID)
		}
		held, err := follower.Server.Jobs().GetByKey(key)
		if err != nil || held.ReservedFor != job.ID || held.State != api.JobPending {
			t.Fatalf("follower after submit = %+v, %v; want a pending reservation for %s", held, err, job.ID)
		}
		done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
		if err != nil || done.State != api.JobSucceeded {
			t.Fatalf("job %d = %+v, %v", i, done, err)
		}
		// The terminal answer came back only after the follower's
		// reservation was settled into a copy of the outcome.
		held, err = follower.Server.Jobs().GetByKey(key)
		if err != nil || held.State != api.JobSucceeded || held.ReservedFor != job.ID {
			t.Fatalf("follower after the terminal read = %+v, %v; want a settled copy", held, err)
		}
		want, err := c.JobResult(ctx, job.ID)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		got, err := client.New(follower.URL).JobResult(ctx, held.ID)
		if err != nil || got.Subsample == nil || got.Subsample.Points != want.Subsample.Points {
			t.Fatalf("settled copy's result = %+v, %v; want the primary's %+v", got, err, want.Subsample)
		}
	}

	executions, counted := int64(0), 0
	for _, p := range reps {
		executions += p.Server.Metrics().ExecutionsTotal(api.JobSubsample)
		for _, n := range p.Server.Jobs().Stats() {
			counted += n
		}
	}
	if executions != jobs {
		t.Fatalf("fleet ran %d subsample executions for %d keyed jobs, want exactly one each", executions, jobs)
	}
	if counted != jobs {
		t.Fatalf("fleet job-state counts total %d for %d keyed jobs (held copies counted?)", counted, jobs)
	}
	if listed, err := client.New(follower.URL).Jobs(ctx); err != nil || len(listed) != 0 {
		t.Fatalf("follower lists %+v, %v; held copies must not be listed", listed, err)
	}
	if listed, err := c.Jobs(ctx); err != nil || len(listed) != jobs {
		t.Fatalf("fleet listing = %d jobs, %v; want %d", len(listed), err, jobs)
	}
	metrics, err := client.New(inproc(owners[0]).URL).MetricsText(ctx)
	if err != nil || !strings.Contains(metrics, fmt.Sprintf(`sickle_jobs_executions_total{type="subsample"} %d`, jobs)) {
		t.Fatalf("primary's /metrics lacks the executions counter (err %v)", err)
	}
}

// TestShardKeyedStateMonotoneUnderOwnerKills is the owner-set property
// test: while owners of a K=2 fleet are killed and restarted (one at a
// time, on the same address and data directory) at random moments,
// every client's sequence of observed job states must never go
// backwards, and once a client has seen succeeded the result must be
// fetchable, with no answer but "unavailable" while the job's owners are
// down.
func TestShardKeyedStateMonotoneUnderOwnerKills(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { ownerKillSchedule(t, seed) })
	}
}

func ownerKillSchedule(t *testing.T, seed int64) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()
	base := t.TempDir()

	const n = 3
	var mu sync.Mutex // guards reps
	reps := make([]*serve.InProc, n)
	dirs := make([]string, n)
	urls := make([]string, n)
	for i := range reps {
		dirs[i] = filepath.Join(base, fmt.Sprint("r", i))
		reps[i] = startDurableReplica(t, "", ckpt, dirs[i])
		urls[i] = reps[i].URL
	}
	rt := newTestRouterK(t, urls, 2)
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	defer func() {
		ts.Close()
		rt.Shutdown(ctx)
		mu.Lock()
		defer mu.Unlock()
		for _, p := range reps {
			if p != nil {
				p.Close(ctx)
			}
		}
	}()

	// Every job routes by the same dataset, so one owner set holds them
	// all. The schedule: wait, kill one of its two owners, wait, restart
	// it.
	var owners []int
	for _, rep := range rt.ReplicaSet().Sequence("GESTS-2048", 2) {
		for i, u := range urls {
			if u == rep.URL {
				owners = append(owners, i)
			}
		}
	}
	stop := make(chan struct{})
	chaosDone := make(chan struct{})
	kills := 0
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed))
		pause := func(lo, hi int) { time.Sleep(time.Duration(lo+rng.Intn(hi-lo)) * time.Millisecond) }
		for {
			select {
			case <-stop:
				return
			default:
			}
			pause(20, 120)
			i := owners[rng.Intn(len(owners))]
			mu.Lock()
			addr := reps[i].Addr()
			reps[i].Kill()
			reps[i] = nil
			mu.Unlock()
			kills++
			pause(30, 200)
			p, err := serve.StartInProc(serve.Config{Addr: addr, MaxBatch: 4,
				Window: 2 * time.Millisecond, DataDir: dirs[i]})
			if err != nil {
				t.Errorf("restart replica %d: %v", i, err)
				return
			}
			mu.Lock()
			reps[i] = p
			mu.Unlock()
		}
	}()

	// Each client runs keyed jobs back to back for the test's duration.
	const clients = 4
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := client.New(ts.URL, client.WithRetry(4, 20*time.Millisecond))
			for j := 0; time.Now().Before(deadline); j++ {
				sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 8,
					NumSamples: 64, Seed: seed*1000 + int64(cl*100+j)}
				if err := observeJob(ctx, c, &sub); err != nil {
					t.Errorf("client %d job %d: %v", cl, j, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(stop)
	<-chaosDone
	if kills == 0 {
		t.Fatal("the schedule killed no replica")
	}
	t.Logf("seed %d: %d kills, %d takeovers", seed, kills,
		len(rt.Journal().Events(0, events.TypeTakeover, time.Time{})))
}

// observeJob submits one keyed job and polls it to the end, returning an
// error if the observed states ever go backwards, or if after succeeded
// the result read answers anything but the result or unavailable.
func observeJob(ctx context.Context, c *client.Client, sub *api.SubsampleRequest) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: sub, IdempotencyKey: api.NewIdempotencyKey()}
	var job *api.Job
	for {
		var err error
		if job, err = c.SubmitJob(ctx, &req); err == nil {
			break
		}
		if api.AsError(err).Code != api.CodeUnavailable || ctx.Err() != nil {
			return fmt.Errorf("submit: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	seen := []api.JobState{job.State}
	for !seen[len(seen)-1].Terminal() {
		time.Sleep(5 * time.Millisecond)
		got, err := c.Job(ctx, job.ID)
		if err != nil {
			if api.AsError(err).Code != api.CodeUnavailable || ctx.Err() != nil {
				return fmt.Errorf("status after %v: %w", seen, err)
			}
			continue
		}
		if behind(got.State, seen[len(seen)-1]) {
			return fmt.Errorf("state went backwards: %v then %s", seen, got.State)
		}
		seen = append(seen, got.State)
	}
	if last := seen[len(seen)-1]; last != api.JobSucceeded {
		return fmt.Errorf("job ended %s after %v", last, seen)
	}
	for {
		res, err := c.JobResult(ctx, job.ID)
		if err == nil {
			if res.Subsample == nil {
				return fmt.Errorf("result without a subsample payload")
			}
			return nil
		}
		if api.AsError(err).Code != api.CodeUnavailable || ctx.Err() != nil {
			return fmt.Errorf("result after succeeded: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardKeyReusedAfterExpiry: once a keyed job has expired on its
// owners (the job TTL), a resubmission of the key through the router is
// a new job: the client gets the new job's ID and result, and a result
// read of the expired job's ID answers job_not_found.
func TestShardKeyReusedAfterExpiry(t *testing.T) {
	ctx := context.Background()
	const ttl = 300 * time.Millisecond
	reps := make([]*serve.InProc, 3)
	urls := make([]string, 3)
	for i := range reps {
		p, err := serve.StartInProc(serve.Config{MaxBatch: 4, Window: 2 * time.Millisecond, JobTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		reps[i], urls[i] = p, p.URL
		defer p.Close(ctx)
	}
	rt := newTestRouterK(t, urls, 2)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 5}
	req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: api.NewIdempotencyKey()}
	run := func() (*api.Job, *api.JobResult) {
		t.Helper()
		job, err := c.SubmitJob(ctx, &req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
		if err != nil || done.State != api.JobSucceeded || done.ID != job.ID {
			t.Fatalf("job %s ended as %+v, %v", job.ID, done, err)
		}
		res, err := c.JobResult(ctx, job.ID)
		if err != nil || res.Subsample == nil {
			t.Fatalf("result of %s = %+v, %v", job.ID, res, err)
		}
		return job, res
	}
	first, want := run()
	waitFor(t, "the key to expire on every replica", 5*time.Second, func() bool {
		for _, p := range reps {
			if _, err := p.Server.Jobs().GetByKey(req.IdempotencyKey); err == nil {
				return false
			}
		}
		return true
	})

	second, got := run()
	if second.ID == first.ID {
		t.Fatalf("resubmission after expiry answered the expired job %s", first.ID)
	}
	if got.Subsample.Points != want.Subsample.Points {
		t.Fatalf("new job's result has %d points, the first had %d", got.Subsample.Points, want.Subsample.Points)
	}
	if _, err := c.JobResult(ctx, first.ID); api.AsError(err).Code != api.CodeJobNotFound {
		t.Fatalf("result of the expired job %s = %v, want job_not_found", first.ID, err)
	}
}

// settleFleet is a K=2 fleet of two replicas whose follower, for the
// keyed job the fleet was started with, can be made to hold every
// settle call (PUT /v2/keys) open until the caller gives up.
type settleFleet struct {
	c                 *client.Client
	primary, follower *serve.InProc
	primaryFront      *httptest.Server
	stuck             *atomic.Bool // the follower holds settle calls
	key               string
	job               *api.Job
}

// startSettleFleet submits one keyed job through the router while the
// follower holds settle calls, and returns once the job has finished on
// its primary, before any terminal read.
func startSettleFleet(t *testing.T) *settleFleet {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()
	release := make(chan struct{})
	reps := make([]*serve.InProc, 2)
	fronts := make([]*httptest.Server, 2)
	stuck := make([]*atomic.Bool, 2)
	urls := make([]string, 2)
	for i := range reps {
		p := startReplica(t, "", ckpt)
		h, hold := p.Server.Handler(), new(atomic.Bool)
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hold.Load() && r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v2/keys/") {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { front.Close(); p.Close(ctx) })
		reps[i], fronts[i], stuck[i], urls[i] = p, front, hold, front.URL
	}
	t.Cleanup(func() { close(release) })
	rt := newTestRouterK(t, urls, 2)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 9}
	p, f := 0, 1
	if rt.ReplicaSet().Sequence(subsampleKey(&sub), 2)[0].URL == urls[1] {
		p, f = 1, 0
	}
	sf := &settleFleet{c: client.New(ts.URL, client.WithRetry(0, 0)), primary: reps[p], follower: reps[f],
		primaryFront: fronts[p], stuck: stuck[f], key: api.NewIdempotencyKey()}
	sf.stuck.Store(true)
	var err error
	sf.job, err = sf.c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: sf.key})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := splitJobID(sf.job.ID)
	waitFor(t, "the job to finish on its primary", 10*time.Second, func() bool {
		j, err := sf.primary.Server.Jobs().Get(raw)
		return err == nil && j.State.Terminal()
	})
	return sf
}

// readHeld reads the job's first terminal state through the router while
// the follower holds the settle call: it must come back succeeded within
// about settleTimeout, and leave the follower's reservation pending.
func (sf *settleFleet) readHeld(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	done, err := sf.c.Job(ctx, sf.job.ID)
	if took := time.Since(t0); err != nil || done.State != api.JobSucceeded || took > settleTimeout+2*time.Second {
		t.Fatalf("terminal read with a hung follower = %+v, %v after %v; want succeeded within about %v",
			done, err, took, settleTimeout)
	}
	if held, err := sf.follower.Server.Jobs().GetByKey(sf.key); err != nil || held.State != api.JobPending {
		t.Fatalf("hung follower holds %+v, %v; want its reservation still pending", held, err)
	}
}

// TestShardSettleWaitsBoundedForFollower: a follower that accepts the
// settle call but never answers delays the terminal read by at most
// settleTimeout, keeps its reservation, and is settled by a later
// terminal read once it answers again.
func TestShardSettleWaitsBoundedForFollower(t *testing.T) {
	sf := startSettleFleet(t)
	sf.readHeld(t)
	sf.stuck.Store(false)
	if _, err := sf.c.Job(context.Background(), sf.job.ID); err != nil {
		t.Fatal(err)
	}
	if held, err := sf.follower.Server.Jobs().GetByKey(sf.key); err != nil || held.State != api.JobSucceeded {
		t.Fatalf("follower after it answers again = %+v, %v; want a settled copy", held, err)
	}
}

// TestShardResubmitAfterTerminalDoesNotTakeOver: a key whose terminal
// state was returned, whose primary then died before its follower was
// settled, is not run again by a resubmission: the router answers the
// state it returned, and the follower's reservation stays unactivated.
func TestShardResubmitAfterTerminalDoesNotTakeOver(t *testing.T) {
	sf := startSettleFleet(t)
	sf.readHeld(t)
	sf.primaryFront.Close()
	sf.stuck.Store(false)

	req := api.SubmitJobRequest{IdempotencyKey: sf.key, Type: api.JobSubsample,
		Subsample: &api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 9}}
	again, err := sf.c.SubmitJob(context.Background(), &req)
	if err != nil || again.ID != sf.job.ID || again.State != api.JobSucceeded {
		t.Fatalf("resubmission with the primary down = %+v, %v; want %s succeeded", again, err, sf.job.ID)
	}
	if held, err := sf.follower.Server.Jobs().GetByKey(sf.key); err != nil || held.State != api.JobPending {
		t.Fatalf("follower holds %+v, %v; want its reservation unactivated", held, err)
	}
	if n := sf.follower.Server.Metrics().ExecutionsTotal(api.JobSubsample); n != 0 {
		t.Fatalf("follower ran the job %d times, want 0", n)
	}
}
