package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/events"
	olog "repro/internal/obs/log"
	"repro/internal/obs/slo"
	"repro/pkg/api"
	"repro/pkg/client"
)

// Config sizes the router. Zero values select the documented defaults.
type Config struct {
	Addr        string        // listen address (default :8090)
	URLs        []string      // backend base URLs (required)
	VNodes      int           // virtual nodes per replica (default DefaultVNodes)
	ProbeEvery  time.Duration // health-probe period (default 1s)
	FailAfter   int           // consecutive failures before ejection (default 2)
	MaxFailover int           // extra ring nodes tried after the primary (default 2)
	Replication int           // owner-set size K for keyed job submissions (default 1)
	HTTPClient  *http.Client  // optional downstream transport override (tests)

	// Logger receives request and lifecycle logs; nil discards them.
	Logger *olog.Logger
	// TraceCapacity bounds the in-memory span ring behind /debug/traces
	// (default obs.DefaultTraceCapacity).
	TraceCapacity int

	// Flight recorder: metrics history, event journal, SLO engine.
	HistoryInterval time.Duration   // tsdb sampling period (default 1s)
	HistoryCapacity int             // points kept per series (default 600)
	EventCapacity   int             // event-journal ring size (default 1024)
	SLOs            []slo.Objective // declared objectives (empty = always ok)
}

// Router fronts a ReplicaSet with the pkg/api HTTP surface. Keyed
// requests (infer by model, subsample by dataset, registration by name,
// job submission by dataset) go to the key's ring owner with bounded
// failover; listings and the version handshake scatter-gather; job
// lookups stick to the accepting replica through an ID suffix.
type Router struct {
	*node.Node // tracer, journal, history, SLO engine; instrument and route table

	cfg   Config
	rs    *ReplicaSet
	met   *Metrics
	start time.Time

	// replication is the owner-set size K: a keyed job submission runs on
	// the first of the K distinct ring successors of its routing key (the
	// primary) and is held as a reservation on the others (the
	// followers); a resubmitted key found on any of them is answered from
	// the existing job instead of spawning a duplicate.
	replication int

	// owners remembers raw downstream job ID → (replica, idempotency key):
	// the fallback for clients that stripped the "@rN" suffix (the suffix
	// itself is the authoritative stateless mapping, since raw IDs are only
	// unique per replica), and the map that lets sticky reads re-find a
	// keyed job on its followers when its replica dies. Bounded LRU; a
	// removed replica's entries, and an ejected one's unkeyed entries, are
	// evicted eagerly.
	owners *ownerCache

	// keys remembers, per idempotency key, the submission (to activate a
	// reservation), the followers still to settle, and the highest state
	// returned (so no client sees a keyed job move backwards). Nil at
	// K=1, where a keyed job has no followers and its state comes from
	// its one replica.
	keys *keyBook
}

// NewRouter builds a ready-to-listen router. Call Start to launch the
// health prober and Shutdown to stop everything.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8090"
	}
	if cfg.MaxFailover <= 0 {
		cfg.MaxFailover = 2
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	met := NewMetrics()
	n := node.New("shard", "router:", met, slo.ShardMetrics, node.Obs{
		Logger: cfg.Logger, TraceCapacity: cfg.TraceCapacity,
		HistoryInterval: cfg.HistoryInterval, HistoryCapacity: cfg.HistoryCapacity,
		EventCapacity: cfg.EventCapacity, SLOs: cfg.SLOs,
	})
	rs, err := NewReplicaSet(SetConfig{
		URLs: cfg.URLs, VNodes: cfg.VNodes,
		ProbeEvery: cfg.ProbeEvery, FailAfter: cfg.FailAfter,
		HTTPClient: cfg.HTTPClient, Journal: n.Journal(),
	}, met)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		Node:        n,
		cfg:         cfg,
		rs:          rs,
		met:         met,
		start:       time.Now(),
		replication: cfg.Replication,
		owners:      newOwnerCache(maxJobOwnerEntries),
	}
	if rt.replication > 1 {
		rt.keys = newKeyBook(maxKeyRecords)
	}
	// A replica leaving the ring for health reasons takes its unkeyed
	// sticky-cache entries with it: the cache must not pin routing state
	// at a dead replica. Keyed entries stay so reads of its keyed jobs can
	// fail over to their followers for as long as it is down.
	rs.OnEject(func(id string) { rt.owners.ForgetUnkeyed(id) })
	met.Registry().GaugeFunc("sickle_shard_owner_set_size",
		"Members in each key's owner set: the replication factor, bounded by ring size.",
		func() float64 {
			n := rt.rs.RingMembers()
			if rt.replication < n {
				n = rt.replication
			}
			return float64(n)
		})
	rt.Bind(cfg.Addr, rt.Handler())
	return rt, nil
}

// ReplicaSet exposes the replica set (tests, healthz embedders).
func (rt *Router) ReplicaSet() *ReplicaSet { return rt.rs }

// Metrics exposes the collector (tests).
func (rt *Router) Metrics() *Metrics { return rt.met }

// Start launches the background health prober and the history sampler.
func (rt *Router) Start() {
	rt.rs.Start()
	rt.StartRecorder()
}

// Shutdown stops accepting, waits for in-flight handlers (each bounded by
// its own request context), and halts the prober. Backends are left
// running — they are not the router's to stop.
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.HTTP().Shutdown(ctx)
	rt.rs.Stop()
	rt.StopRecorder()
	return err
}

// Handler returns the route mux (also usable under httptest). The surface
// mirrors internal/serve's v2 routes byte for byte, including the typed
// 405/404 fallbacks, so pkg/client works unchanged against the router.
func (rt *Router) Handler() http.Handler {
	mux := rt.Mux([]node.Route{
		{Pattern: "/healthz", Handle: rt.handleHealthz},
		{Pattern: "GET /api/version", Handle: rt.handleVersion},

		{Pattern: "POST /v2/infer", Handle: forward(rt, inferKey, (*client.Client).Infer)},
		{Pattern: "POST /v2/subsample", Handle: forward(rt, subsampleKey, (*client.Client).Subsample)},
		{Pattern: "GET /v2/models", Handle: rt.handleListModels},
		{Pattern: "POST /v2/models", Handle: forward(rt, registerKey, (*client.Client).RegisterModel)},
		{Pattern: "GET /v2/jobs", Handle: rt.handleListJobs},
		{Pattern: "POST /v2/jobs", Handle: rt.handleSubmitJob},
		{Pattern: "GET /v2/jobs/{id}", Handle: rt.handleGetJob},
		{Pattern: "DELETE /v2/jobs/{id}", Handle: rt.handleCancelJob},
		{Pattern: "GET /v2/jobs/{id}/result", Handle: rt.handleJobResult},
		{Pattern: "GET /v2/keys/{key}", Handle: rt.handleGetJobByKey},

		{Pattern: "GET /admin/replicas", Handle: rt.handleAdminListReplicas},
		{Pattern: "POST /admin/replicas", Handle: rt.handleAdminJoinReplica},
		{Pattern: "DELETE /admin/replicas/{id}", Handle: rt.handleAdminDrainReplica},
	})
	mux.HandleFunc("GET /debug/traces", rt.Tracer().HandleTraceList)
	traceID := func(r *http.Request) string { return r.PathValue("id") }
	query := func(r *http.Request) string { return r.URL.RawQuery }
	mux.HandleFunc("GET /debug/traces/{id}", fleetDebug(rt, rt.Tracer().Answer, (*client.Client).DebugTraceJSON, traceID))
	mux.HandleFunc("GET /debug/history", fleetDebug(rt, rt.History().Answer, (*client.Client).DebugHistoryJSON, query))
	mux.HandleFunc("GET /debug/events", fleetDebug(rt, rt.Journal().Answer, (*client.Client).DebugEventsJSON, query))
	rt.SLO().Mount(mux)
	return mux
}

// ---- routing core ----

// route tries fn against each consistent-hash candidate for key in ring
// order: the owner first, then up to MaxFailover successors. A replica
// that is overloaded or draining triggers failover to the next candidate;
// one that is unreachable (typed unavailable — also dinging its health)
// fails over only when retryUnavailable is set, because an unreachable
// answer cannot distinguish "never delivered" from "accepted, response
// lost" — safe for idempotent work only. Reads and infer calls qualify
// by nature; job submissions qualify exactly when the client supplied
// an idempotency key, which lets the backend deduplicate a resubmission
// (unkeyed submissions stay at-most-once). Any other answer — success
// or an application-level error — is final and passes through
// unchanged. Returns the replica that answered.
//
// Tracing: one route:<key> span covers the whole candidate walk, with one
// client:<replicaID> child span per attempt; fn receives the attempt's
// context so the downstream call (and the X-Sickle-Trace header pkg/client
// attaches) is parented to its own attempt.
func (rt *Router) route(ctx context.Context, key string, retryUnavailable bool, fn func(context.Context, *Replica) error) (*Replica, error) {
	cands := rt.rs.Sequence(key, 1+rt.cfg.MaxFailover)
	if len(cands) == 0 {
		return nil, api.Errorf(api.CodeUnavailable, "shard: no replicas configured")
	}
	ctx, routeSpan := rt.Tracer().StartSpan(ctx, "route:"+key)
	defer routeSpan.End()
	var lastErr error
	for i, r := range cands {
		if i > 0 {
			rt.met.ObserveFailover()
			rt.Journal().Emit(events.TypeFailover, "request failed over to a non-primary ring node",
				routeSpan.TraceID(), "key", key, "replica", r.ID, "attempt", strconv.Itoa(i))
		}
		attemptCtx, attempt := rt.Tracer().StartSpan(ctx, "client:"+r.ID)
		attempt.SetAttr("url", r.URL)
		if i > 0 {
			attempt.SetAttr("failover", strconv.Itoa(i))
		}
		err := fn(attemptCtx, r)
		if err != nil {
			attempt.SetAttr("error", string(api.AsError(err).Code))
		}
		attempt.End()
		if err == nil {
			routeSpan.SetAttr("replica", r.ID)
			rt.met.ObserveRouted(r.ID)
			rt.rs.NoteOK(r)
			return r, nil
		}
		lastErr = err
		switch api.AsError(err).Code {
		case api.CodeUnavailable:
			rt.met.ObserveFailed(r.ID)
			rt.rs.NoteFailure(r, err)
			if !retryUnavailable {
				return r, err
			}
		case api.CodeOverloaded, api.CodeShuttingDown:
			// Busy or draining, not dead: try the next ring node without
			// dinging the replica's health. Nothing was admitted, so this is
			// safe even for submissions.
			rt.met.ObserveFailed(r.ID)
		default:
			// A real application answer (bad request, model_not_found, the
			// client hanging up): final.
			return r, err
		}
	}
	return nil, lastErr
}

// scatter runs fn against every live replica concurrently (falling back to
// all replicas when everything is ejected) and reports how many calls
// succeeded. fn must be safe for concurrent use across replicas.
func (rt *Router) scatter(fn func(*Replica) error) int {
	replicas := rt.rs.Live()
	if len(replicas) == 0 {
		replicas = rt.rs.Replicas()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok := 0
	for _, r := range replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			err := fn(r)
			if err != nil {
				if api.AsError(err).Code == api.CodeUnavailable {
					rt.rs.NoteFailure(r, err)
				}
				return
			}
			rt.rs.NoteOK(r)
			mu.Lock()
			ok++
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return ok
}

// ---- keyed handlers (consistent hash + failover) ----

// forward serves a keyed request: it routes the decoded request to the
// key's ring owner with failover (see route; unavailable is retried, as
// every keyed request here is idempotent — a duplicate registration is a
// harmless hot-swap to identical weights) and answers with its reply.
func forward[Req, Resp any](rt *Router, key func(*Req) string,
	call func(*client.Client, context.Context, *Req) (*Resp, error)) node.HandlerFunc {
	return node.JSON(func(ctx context.Context, req *Req) (resp *Resp, err error) {
		_, err = rt.route(ctx, key(req), true, func(ctx context.Context, rep *Replica) (err error) {
			resp, err = call(rep.C, ctx, req)
			return err
		})
		return resp, err
	})
}

func inferKey(req *api.InferRequest) string { return req.Model }

func registerKey(req *api.RegisterModelRequest) string { return req.Name }

// subsampleKey picks the routing key that keeps a dataset's LRU entry hot
// on one replica: the shard path when set, else the dataset name.
func subsampleKey(req *api.SubsampleRequest) string {
	if req.Shard != "" {
		return req.Shard
	}
	return req.Dataset
}

// ---- scatter-gather handlers ----

// catalog scatter-gathers the fleet's models (every live replica but
// skip, which may be nil), keeping each name's newest version, and
// reports how many replicas answered.
func (rt *Router) catalog(ctx context.Context, skip *Replica) (map[string]api.ModelInfo, int) {
	var mu sync.Mutex
	merged := map[string]api.ModelInfo{}
	ok := rt.scatter(func(rep *Replica) error {
		if rep == skip {
			return nil
		}
		models, err := rep.C.Models(ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, m := range models {
			if have, dup := merged[m.Name]; !dup || m.Version > have.Version {
				merged[m.Name] = m
			}
		}
		return nil
	})
	return merged, ok
}

func (rt *Router) handleListModels(w http.ResponseWriter, r *http.Request) error {
	merged, ok := rt.catalog(r.Context(), nil)
	if ok == 0 {
		return node.WriteAPIError(w, api.Errorf(api.CodeUnavailable, "shard: no replica answered GET /v2/models"))
	}
	out := make([]api.ModelInfo, 0, len(merged))
	for _, name := range sortedKeys(merged) {
		out = append(out, merged[name])
	}
	return node.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleVersion(w http.ResponseWriter, r *http.Request) error {
	var mu sync.Mutex
	var infos []*api.VersionInfo
	ok := rt.scatter(func(rep *Replica) error {
		info, err := rep.C.ServerVersions(r.Context())
		if err != nil {
			return err
		}
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
		return nil
	})
	if ok == 0 {
		return node.WriteAPIError(w, api.Errorf(api.CodeUnavailable, "shard: no replica answered GET /api/version"))
	}
	// Intersect: a version is served only if every answering replica
	// speaks it (order kept from the first reply, oldest first).
	common := append([]string(nil), infos[0].Versions...)
	for _, info := range infos[1:] {
		kept := common[:0]
		for _, v := range common {
			for _, have := range info.Versions {
				if v == have {
					kept = append(kept, v)
					break
				}
			}
		}
		common = kept
	}
	out := api.VersionInfo{Versions: common}
	if len(common) > 0 {
		out.Latest = common[len(common)-1]
	}
	return node.WriteJSON(w, http.StatusOK, out)
}

// ---- job handlers (sticky job-ID -> replica) ----

// Job IDs leaving the router carry the accepting replica as a suffix
// ("job-3@r1"): raw downstream IDs are only unique per replica, and the
// suffix makes the sticky mapping stateless — it survives a router
// restart with no shared store.
const jobIDSep = "@"

func splitJobID(id string) (raw, replicaID string) {
	if i := strings.LastIndex(id, jobIDSep); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, ""
}

// maxJobOwnerEntries bounds the sticky-cache fallback; the suffix is the
// authoritative mapping, so an evicted entry only affects clients that
// strip it (their read degrades to job_not_found, never to a wrong job).
const maxJobOwnerEntries = 8192

func (rt *Router) rememberJob(raw, replicaID, key string) {
	rt.owners.Remember(raw, replicaID, key)
}

// jobReplica resolves a client-facing job ID to (raw downstream ID,
// owning replica): the "@rN" suffix when present, else the sticky cache.
func (rt *Router) jobReplica(id string) (string, *Replica, error) {
	raw, rid := splitJobID(id)
	if rid == "" {
		rid, _ = rt.owners.Resolve(raw)
	}
	if rid == "" {
		return "", nil, api.Errorf(api.CodeJobNotFound, "shard: no job %q", id)
	}
	rep, ok := rt.rs.Get(rid)
	if !ok {
		return "", nil, api.Errorf(api.CodeJobNotFound, "shard: job %q names unknown replica %q", id, rid)
	}
	return raw, rep, nil
}

// submitKey routes a job to the replica whose caches its payload will
// touch: the subsample/train dataset when present, else the job type.
func submitKey(req *api.SubmitJobRequest) string {
	switch {
	case req.Subsample != nil:
		return subsampleKey(req.Subsample)
	case req.Train != nil:
		return req.Train.Dataset
	}
	return string(req.Type)
}

// resolveKey finds the job answering for idempotency key among cands,
// asked in order (skip, a replica known to be down, is left out). The job
// that runs the key (the primary's own, or a takeover) or a settled copy
// answers at once. A bare reservation means the primary did not answer:
// the primary the reservation names is asked directly, and failing that
// the reservation is activated by resending the keyed submission (req,
// else the one this router recorded), which makes it a runnable job on
// its holder: a takeover. A key whose terminal state this router already
// returned is never taken over, because its outcome exists on the
// unreachable primary and running the job again could only answer "not
// ready" to a client that has seen it finish.
func (rt *Router) resolveKey(ctx context.Context, key string, cands []*Replica, skip *Replica,
	req *api.SubmitJobRequest) (*api.Job, *Replica, bool) {
	var held *api.Job
	var holder *Replica
	asked := map[*Replica]bool{skip: true}
	for _, rep := range cands {
		if asked[rep] {
			continue
		}
		asked[rep] = true
		job, err := rep.C.JobByKey(ctx, key)
		if err != nil {
			if api.AsError(err).Code == api.CodeUnavailable {
				rt.met.ObserveFailed(rep.ID)
				rt.rs.NoteFailure(rep, err)
			}
			continue
		}
		rt.rs.NoteOK(rep)
		if job.ReservedFor == "" || job.State.Terminal() {
			return job, rep, true
		}
		if held == nil {
			held, holder = job, rep
		}
	}
	if held == nil {
		return nil, nil, false
	}
	if raw, prim, err := rt.jobReplica(held.ReservedFor); err == nil && !asked[prim] {
		if job, err := prim.C.Job(ctx, raw); err == nil {
			rt.rs.NoteOK(prim)
			return job, prim, true
		}
	}
	if rt.keys == nil {
		return nil, nil, false
	}
	if req == nil {
		req = rt.keys.Request(key)
	}
	if req == nil || rt.keys.Seen(key).State.Terminal() {
		return nil, nil, false
	}
	job, err := holder.C.SubmitJob(ctx, req)
	if err != nil {
		return nil, nil, false
	}
	tc, _ := api.TraceFrom(ctx)
	rt.Journal().Emit(events.TypeTakeover, "follower reservation activated: the primary owner did not answer",
		tc.TraceID, "replica", holder.ID, "job", job.ID, "primary", held.ReservedFor)
	return job, holder, true
}

// reserve places a reservation for a keyed submission, admitted by
// primary as primaryID, on every other member of the key's owner set,
// concurrently, and returns the members that hold one. A reservation is
// logged but never run unless its holder takes over from a dead primary;
// a member refusing one costs the key only its takeover cover there.
func (rt *Router) reserve(ctx context.Context, routeKey string, req *api.SubmitJobRequest,
	primary *Replica, primaryID string) []string {
	if rt.replication <= 1 {
		return nil
	}
	hold := *req
	hold.ReserveFor = primaryID
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for _, rep := range rt.rs.Sequence(routeKey, rt.replication) {
		if rep == primary {
			continue
		}
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			if _, err := rep.C.SubmitJob(ctx, &hold); err != nil {
				rt.met.ObserveOwnerReplicationFailure()
				if api.AsError(err).Code == api.CodeUnavailable {
					rt.rs.NoteFailure(rep, err)
				}
				return
			}
			rt.rs.NoteOK(rep)
			rt.met.ObserveOwnerReplication(rep.ID)
			mu.Lock()
			ids = append(ids, rep.ID)
			mu.Unlock()
		}(rep)
	}
	wg.Wait()
	return ids
}

// settleTimeout bounds each call that copies an outcome onto a follower,
// so a follower that accepts connections but never answers delays a read
// by at most this long.
const settleTimeout = time.Second

// settle copies a keyed job's terminal outcome from rep, where it ran,
// onto the followers still holding a bare reservation for its key: the
// terminal record, plus the result (res, or fetched from rep) when it
// succeeded. Best-effort and concurrent, each call bounded by
// settleTimeout: followers that are down or do not answer stay on the
// list and are retried on the next terminal read. When the router does
// not know the followers, every other live replica is offered the
// outcome, and those without the key decline it.
func (rt *Router) settle(ctx context.Context, rep *Replica, raw string, job *api.Job, res *api.JobResult) {
	key := job.IdempotencyKey
	ids, known := rt.keys.Unsettled(key)
	var targets []*Replica
	var left []string
	if known {
		for _, id := range ids {
			switch r, ok := rt.rs.Get(id); {
			case !ok || r == rep:
			case !r.Up():
				left = append(left, id)
			default:
				targets = append(targets, r)
			}
		}
	} else {
		for _, r := range rt.rs.Live() {
			if r != rep {
				targets = append(targets, r)
			}
		}
	}
	if len(targets) == 0 {
		rt.keys.SetUnsettled(key, left)
		return
	}
	out := &api.SettleRequest{Job: *job, Result: res}
	if job.State == api.JobSucceeded && res == nil {
		var err error
		if out.Result, err = rep.C.JobResult(ctx, raw); err != nil {
			return
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, r := range targets {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, settleTimeout)
			defer cancel()
			_, err := r.C.SettleKey(cctx, key, out)
			if err == nil {
				rt.rs.NoteOK(r)
				return
			}
			if api.AsError(err).Code == api.CodeJobNotFound {
				return // holds nothing for the key (never reserved, or expired)
			}
			mu.Lock()
			left = append(left, r.ID)
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	rt.keys.SetUnsettled(key, left)
}

// answer turns a job snapshot read from rep into the router's reply. A
// keyed job in a terminal state is settled onto its followers first (res,
// when the caller already holds the result), and a keyed job's state is
// clamped to the highest this router has returned for the key, so no
// client sees it move backwards.
func (rt *Router) answer(ctx context.Context, rep *Replica, job *api.Job, res *api.JobResult) *api.Job {
	raw := job.ID
	job.ID = raw + jobIDSep + rep.ID
	if job.IdempotencyKey == "" || rt.keys == nil {
		return job
	}
	if job.State.Terminal() {
		rt.settle(ctx, rep, raw, job, res)
	}
	out := rt.keys.Serve(job.IdempotencyKey, *job)
	return &out
}

func (rt *Router) handleSubmitJob(w http.ResponseWriter, r *http.Request) error {
	var req api.SubmitJobRequest
	if err := node.DecodeBody(r, &req); err != nil {
		return node.WriteAPIError(w, err)
	}
	req.ReserveFor = "" // the router's to set, never the client's
	key := submitKey(&req)
	// A keyed submission consults the full owner set before creating
	// anything: after a failover the key's original job may live on any
	// owner — including one the current ring no longer ranks first — and
	// answering from it is what keeps a resubmission from becoming a
	// fleet-level duplicate.
	if req.IdempotencyKey != "" {
		if job, rep, ok := rt.resolveKey(r.Context(), req.IdempotencyKey,
			rt.rs.Sequence(key, rt.replication), nil, &req); ok {
			rt.met.ObserveOwnerDedupHit()
			tc, _ := api.TraceFrom(r.Context())
			rt.Journal().Emit(events.TypeDedupHit, "keyed resubmission answered from the owner set",
				tc.TraceID, "kind", "owner_set", "replica", rep.ID, "job", job.ID)
			rt.rememberJob(job.ID, rep.ID, req.IdempotencyKey)
			rt.met.ObserveRouted(rep.ID)
			return node.WriteJSON(w, http.StatusOK, rt.answer(r.Context(), rep, job, nil))
		}
		if seen, ok := rt.seenUnreachable(r.Context(), req.IdempotencyKey); ok {
			rt.met.ObserveOwnerDedupHit()
			return node.WriteJSON(w, http.StatusOK, &seen)
		}
	}
	// Unkeyed submissions never fail over on unavailable: the backend may
	// have admitted the job before the connection died, and a retry
	// elsewhere would run it twice. An idempotency key removes that
	// hazard — the backend deduplicates by key, so an unavailable answer
	// is safe to retry on the next ring candidate (and the client SDK's
	// own retry, landing back on the same primary after a restart,
	// observes the original job). Overloaded/draining refusals (nothing
	// admitted) always move on; once the prober ejects a dead primary,
	// new submissions hash straight to its successor.
	var job *api.Job
	rep, err := rt.route(r.Context(), key, req.IdempotencyKey != "",
		func(ctx context.Context, rep *Replica) error {
			out, err := rep.C.SubmitJob(ctx, &req)
			if err != nil {
				return err
			}
			job = out
			return nil
		})
	if err != nil {
		return node.WriteAPIError(w, err)
	}
	rt.rememberJob(job.ID, rep.ID, req.IdempotencyKey)
	if req.IdempotencyKey != "" && rt.keys != nil {
		id := job.ID + jobIDSep + rep.ID
		rt.keys.Submitted(&req, id, rt.reserve(r.Context(), key, &req, rep, id))
	}
	return node.WriteJSON(w, http.StatusAccepted, rt.answer(r.Context(), rep, job, nil))
}

func (rt *Router) handleListJobs(w http.ResponseWriter, r *http.Request) error {
	var mu sync.Mutex
	var all []api.Job
	ok := rt.scatter(func(rep *Replica) error {
		jobs, err := rep.C.Jobs(r.Context())
		if err != nil {
			return err
		}
		for i := range jobs {
			rt.rememberJob(jobs[i].ID, rep.ID, jobs[i].IdempotencyKey)
			jobs[i].ID = jobs[i].ID + jobIDSep + rep.ID
		}
		mu.Lock()
		all = append(all, jobs...)
		mu.Unlock()
		return nil
	})
	if ok == 0 {
		return node.WriteAPIError(w, api.Errorf(api.CodeUnavailable, "shard: no replica answered GET /v2/jobs"))
	}
	sort.Slice(all, func(a, b int) bool {
		if !all[a].CreatedAt.Equal(all[b].CreatedAt) {
			return all[a].CreatedAt.Before(all[b].CreatedAt)
		}
		return all[a].ID < all[b].ID
	})
	return node.WriteJSON(w, http.StatusOK, all)
}

// findReplicated re-finds a keyed job on its followers after the replica
// running it became unreachable: the sticky cache yields the idempotency
// key the job was submitted under (only while its entry still names the
// dead replica — a stale entry must not redirect the read), and a by-key
// scan of the live members finds a settled copy or, failing that, takes
// over through a reservation (see resolveKey).
func (rt *Router) findReplicated(ctx context.Context, raw, deadID string) (*api.Job, *Replica, bool) {
	key := rt.owners.Key(raw, deadID)
	if key == "" {
		return nil, nil, false
	}
	dead, _ := rt.rs.Get(deadID)
	return rt.resolveKey(ctx, key, rt.rs.Live(), dead, nil)
}

// seenUnreachable answers a keyed resubmission that found no job in the
// owner set although this router has returned the key's terminal state:
// if the replica that holds that outcome does not answer, the snapshot
// returned before is answered again, rather than running the job a
// second time (see resolveKey). ok is false when the key has no terminal
// answer or its job is gone (expired), so the submission goes ahead.
func (rt *Router) seenUnreachable(ctx context.Context, key string) (api.Job, bool) {
	if rt.keys == nil {
		return api.Job{}, false
	}
	seen := rt.keys.Seen(key)
	if !seen.State.Terminal() {
		return api.Job{}, false
	}
	raw, rep, err := rt.jobReplica(seen.ID)
	if err == nil {
		_, err = rep.C.Job(ctx, raw)
	}
	return seen, err != nil && api.AsError(err).Code != api.CodeJobNotFound
}

// readResult reads the result of the job a client-facing ID names.
func (rt *Router) readResult(ctx context.Context, id string) (*api.JobResult, error) {
	raw, rep, err := rt.jobReplica(id)
	if err != nil {
		return nil, err
	}
	res, err := rep.C.JobResult(ctx, raw)
	if err == nil {
		rt.met.ObserveRouted(rep.ID)
	}
	return res, err
}

// forwardJob forwards one sticky job call to the owning replica and
// answers with the snapshot in client-facing form (see answer). There is
// no general failover — the job state lives only there — but when the
// replica is unreachable and the job was keyed, the call is retried once
// against the job found on its followers.
func (rt *Router) forwardJob(ctx context.Context, w http.ResponseWriter, id string,
	call func(ctx context.Context, rep *Replica, raw string) (*api.Job, error)) error {
	raw, rep, err := rt.jobReplica(id)
	if err != nil {
		return node.WriteAPIError(w, err)
	}
	job, err := call(ctx, rep, raw)
	if err != nil {
		if api.AsError(err).Code == api.CodeUnavailable {
			rt.rs.NoteFailure(rep, err)
			if copyJob, copyRep, ok := rt.findReplicated(ctx, raw, rep.ID); ok {
				if job2, err2 := call(ctx, copyRep, copyJob.ID); err2 == nil {
					rt.met.ObserveRouted(copyRep.ID)
					return node.WriteJSON(w, http.StatusOK, rt.answer(ctx, copyRep, job2, nil))
				}
			}
		}
		return node.WriteAPIError(w, err)
	}
	rt.rs.NoteOK(rep)
	rt.met.ObserveRouted(rep.ID)
	return node.WriteJSON(w, http.StatusOK, rt.answer(ctx, rep, job, nil))
}

func (rt *Router) handleGetJob(w http.ResponseWriter, r *http.Request) error {
	return rt.forwardJob(r.Context(), w, r.PathValue("id"),
		func(ctx context.Context, rep *Replica, raw string) (*api.Job, error) {
			return rep.C.Job(ctx, raw)
		})
}

func (rt *Router) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	return rt.forwardJob(r.Context(), w, r.PathValue("id"),
		func(ctx context.Context, rep *Replica, raw string) (*api.Job, error) {
			return rep.C.CancelJob(ctx, raw)
		})
}

func (rt *Router) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	raw, rep, err := rt.jobReplica(r.PathValue("id"))
	if err != nil {
		return node.WriteAPIError(w, err)
	}
	key := rt.owners.Key(raw, rep.ID)
	res, err := rep.C.JobResult(r.Context(), raw)
	if err != nil {
		if api.AsError(err).Code == api.CodeUnavailable {
			rt.rs.NoteFailure(rep, err)
			if copyJob, copyRep, ok := rt.findReplicated(r.Context(), raw, rep.ID); ok {
				if res2, err2 := copyRep.C.JobResult(r.Context(), copyJob.ID); err2 == nil {
					rt.met.ObserveRouted(copyRep.ID)
					return node.WriteJSON(w, http.StatusOK, res2)
				}
			}
		}
		// Once this router has returned succeeded for the key, the result
		// must not turn "not ready" because the replica asked is down or
		// running the job again (a takeover, or its own re-run after a
		// restart): fetch it where the succeeded answer came from, and
		// answer unavailable while that replica does not. A job that no
		// longer exists (expired) answers job_not_found.
		if key != "" && rt.keys != nil && api.AsError(err).Code != api.CodeJobNotFound {
			if seen := rt.keys.Seen(key); seen.State == api.JobSucceeded {
				res2, err2 := rt.readResult(r.Context(), seen.ID)
				if err2 == nil {
					return node.WriteJSON(w, http.StatusOK, res2)
				}
				err = err2
				if api.AsError(err2).Code != api.CodeJobNotFound {
					err = api.Errorf(api.CodeUnavailable,
						"shard: job %s succeeded, but no replica holding its result answers", seen.ID)
				}
			}
		}
		return node.WriteAPIError(w, err)
	}
	rt.rs.NoteOK(rep)
	rt.met.ObserveRouted(rep.ID)
	// A result read before any terminal status read is the key's first
	// terminal answer: settle it with the result in hand.
	if key != "" && rt.keys != nil && !rt.keys.Seen(key).State.Terminal() {
		if job, err := rep.C.Job(r.Context(), raw); err == nil {
			rt.answer(r.Context(), rep, job, res)
		}
	}
	return node.WriteJSON(w, http.StatusOK, res)
}

// handleGetJobByKey mirrors the replica-side by-key lookup at fleet scope:
// scan the live members for the key's job (ring-independent — the key may
// have been owned by a membership that no longer exists).
func (rt *Router) handleGetJobByKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return node.WriteAPIError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	job, rep, ok := rt.resolveKey(r.Context(), key, rt.rs.Live(), nil, nil)
	if !ok {
		return node.WriteAPIError(w, api.Errorf(api.CodeJobNotFound, "shard: no job under idempotency key %q", key))
	}
	rt.met.ObserveRouted(rep.ID)
	rt.rememberJob(job.ID, rep.ID, key)
	return node.WriteJSON(w, http.StatusOK, rt.answer(r.Context(), rep, job, nil))
}

// ---- membership admin API ----

// rebalanceProbes is how many synthetic keys sample the keyspace when
// estimating how much primary ownership a membership change moved.
const rebalanceProbes = 256

// sampleOwners records the primary owner of each probe key under the
// current ring; diffing two samples across a membership change estimates
// the moved keyspace share (which consistent hashing keeps near 1/N).
func (rt *Router) sampleOwners() []string {
	out := make([]string, rebalanceProbes)
	for i := range out {
		if rep, ok := rt.rs.Owner("rebalance-probe-" + strconv.Itoa(i)); ok {
			out[i] = rep.ID
		}
	}
	return out
}

// noteRebalance diffs probe-key ownership against a pre-change sample,
// records the moved share, and journals the rebalance.
func (rt *Router) noteRebalance(before []string, kind, traceID string) {
	after := rt.sampleOwners()
	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
		}
	}
	share := float64(moved) / float64(len(before))
	rt.met.ObserveRebalance(share)
	rt.Journal().Emit(events.TypeRebalance, "keyspace ownership rebalanced", traceID,
		"kind", kind, "moved_share", strconv.FormatFloat(share, 'f', 3, 64))
}

func (rt *Router) handleAdminListReplicas(w http.ResponseWriter, _ *http.Request) error {
	out := api.AdminReplicas{Replication: rt.replication, Replicas: []api.AdminReplica{}}
	for _, s := range rt.rs.Snapshot() {
		out.Replicas = append(out.Replicas, api.AdminReplica{
			ID: s.ID, URL: s.URL, Up: s.Up, Draining: s.Draining,
		})
	}
	return node.WriteJSON(w, http.StatusOK, out)
}

// handleAdminJoinReplica brings a running backend into the ring: create it
// as a pending (off-ring) member, health-check it, warm-prefetch the
// fleet's model catalog onto it, and only then admit it — a newcomer never
// takes keyed traffic with a cold cache.
func (rt *Router) handleAdminJoinReplica(w http.ResponseWriter, r *http.Request) error {
	var req api.JoinReplicaRequest
	if err := node.DecodeBody(r, &req); err != nil {
		return node.WriteAPIError(w, err)
	}
	if strings.TrimSpace(req.URL) == "" {
		return node.WriteAPIError(w, api.Errorf(api.CodeInvalidArgument, "shard: join needs a backend url"))
	}
	before := rt.sampleOwners()
	rep, err := rt.rs.AddReplica(req.URL)
	if err != nil {
		return node.WriteAPIError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
	}
	if _, err := rep.C.Health(r.Context()); err != nil {
		rt.rs.RemoveReplica(rep.ID)
		return node.WriteAPIError(w, api.Errorf(api.CodeUnavailable,
			"shard: replica at %s failed its admission health check: %v", rep.URL, err))
	}
	prefetched := rt.prefetchModels(r.Context(), rep)
	if !rt.rs.Admit(rep) {
		return node.WriteAPIError(w, api.Errorf(api.CodeUnavailable,
			"shard: replica %s was removed before admission", rep.ID))
	}
	tc, _ := api.TraceFrom(r.Context())
	rt.Journal().Emit(events.TypeReplicaJoin, "replica joined the ring", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "prefetched", strconv.Itoa(len(prefetched)))
	rt.noteRebalance(before, "join", tc.TraceID)
	if prefetched == nil {
		prefetched = []string{}
	}
	return node.WriteJSON(w, http.StatusOK, api.JoinReplicaResponse{
		Replica:          api.AdminReplica{ID: rep.ID, URL: rep.URL, Up: true},
		PrefetchedModels: prefetched,
	})
}

// prefetchModels warm-caches the fleet's model catalog onto a pending
// replica: scatter the current members for their newest version of each
// model, then register every checkpoint-backed one on the newcomer.
// Best-effort — a model whose checkpoint the newcomer cannot load is
// skipped, not fatal (it will 404 there and fail over like today).
func (rt *Router) prefetchModels(ctx context.Context, rep *Replica) []string {
	catalog, _ := rt.catalog(ctx, rep)
	var prefetched []string
	for _, name := range sortedKeys(catalog) {
		m := catalog[name]
		if m.Checkpoint == "" {
			continue // nothing on disk to reload it from
		}
		_, err := rep.C.RegisterModel(ctx, &api.RegisterModelRequest{
			Name: m.Name, Spec: m.Spec, Checkpoint: m.Checkpoint,
			InputShape: m.InputShape, Replicas: m.Replicas,
		})
		if err == nil {
			prefetched = append(prefetched, m.Name)
		}
	}
	return prefetched
}

// handleAdminDrainReplica is the rolling-drain orchestration: the replica
// leaves both rings immediately (no new keyed traffic), its sticky jobs
// bleed to terminal states (bounded by the request context; skipped with
// ?force=true), and only then is it removed from the membership — into
// the retired set, so job IDs minted while it was a member keep resolving.
func (rt *Router) handleAdminDrainReplica(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	force := r.URL.Query().Get("force") == "true"
	before := rt.sampleOwners()
	rep, ok := rt.rs.SetDraining(id)
	if !ok {
		return node.WriteAPIError(w, api.Errorf(api.CodeNotFound, "shard: no replica %q", id))
	}
	tc, _ := api.TraceFrom(r.Context())
	rt.Journal().Emit(events.TypeReplicaDrain, "replica draining before removal", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "force", strconv.FormatBool(force))
	drained := 0
	if !force {
		n, err := rt.bleedJobs(r.Context(), rep)
		if err != nil {
			// Left draining, off-ring: the operator can retry, wait longer,
			// or force the removal.
			return node.WriteAPIError(w, err)
		}
		drained = n
	}
	rt.rs.RemoveReplica(rep.ID)
	rt.owners.ForgetReplica(rep.ID)
	rt.Journal().Emit(events.TypeReplicaLeave, "replica removed from the membership", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "drained_jobs", strconv.Itoa(drained))
	rt.noteRebalance(before, "leave", tc.TraceID)
	return node.WriteJSON(w, http.StatusOK, api.DrainReplicaResponse{
		Replica:     api.AdminReplica{ID: rep.ID, URL: rep.URL, Up: rep.Up()},
		DrainedJobs: drained,
	})
}

// bleedJobs polls a draining replica until none of its jobs are live,
// returning how many were still running when the drain began. A poll
// failure is not fatal — the replica may be briefly busy — only the
// context deadline ends the wait early.
func (rt *Router) bleedJobs(ctx context.Context, rep *Replica) (int, error) {
	first := 0
	counted := false
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		jobs, err := rep.C.Jobs(ctx)
		if err == nil {
			n := 0
			for _, j := range jobs {
				if !j.State.Terminal() {
					n++
				}
			}
			if !counted {
				first, counted = n, true
			}
			if n == 0 {
				return first, nil
			}
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return first, api.AsError(ctx.Err())
		}
	}
}

// ---- plain endpoints ----

// handleHealthz aggregates the prober's latest view: the router itself
// always answers 200 (it is alive); Status says whether any backend is.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	snap := rt.rs.Snapshot()
	h := api.Health{
		Status:        "down",
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Models:        []string{},
		Replication:   rt.replication,
	}
	modelSet := map[string]struct{}{}
	for _, s := range snap {
		rh := api.ReplicaHealth{ID: s.ID, URL: s.URL, Up: s.Up, Draining: s.Draining,
			Status: s.Health.Status, ConsecutiveFailures: s.ConsecFails}
		if s.LastErr != nil {
			rh.Error = s.LastErr.Error()
		}
		h.Replicas = append(h.Replicas, rh)
		if !s.Up {
			continue
		}
		h.Status = "ok"
		h.QueueDepth += s.Health.QueueDepth
		for _, m := range s.Health.Models {
			modelSet[m] = struct{}{}
		}
		for state, n := range s.Health.Jobs {
			if h.Jobs == nil {
				h.Jobs = map[string]int{}
			}
			h.Jobs[state] += n
		}
	}
	for _, m := range sortedKeys(modelSet) {
		h.Models = append(h.Models, m)
	}
	// The router's own SLOs can degrade an otherwise-ok fleet view; a
	// fully down fleet stays "down" (worse than degraded).
	if h.Status == "ok" && rt.SLO().Status() == "degraded" {
		h.Status = "degraded"
	}
	return node.WriteJSON(w, http.StatusOK, h)
}

// fleetDebug serves one /debug endpoint for the whole fleet: the
// router's own payload, built by the component's own query parsing (so a
// bad query is refused here exactly as a replica would refuse it), with
// every live replica's answer to fetch(arg(request)) merged in under its
// replica ID. A replica that lacks the item answers an error and is
// skipped; only unreachability counts against its health. A not_found
// own answer stands only when no replica had the item either. The merge
// is best-effort and bounded by a short timeout.
func fleetDebug[P any, PP interface {
	*P
	Merge(replica string, other P)
}](rt *Router, own func(*http.Request) (P, error),
	fetch func(*client.Client, context.Context, string) ([]byte, error), arg func(*http.Request) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out, err := own(r)
		if err != nil && api.AsError(err).Code != api.CodeNotFound {
			obs.WriteDebug(w, nil, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		var mu sync.Mutex
		merged := 0
		rt.scatter(func(rep *Replica) error {
			raw, ferr := fetch(rep.C, ctx, arg(r))
			if ferr != nil {
				if api.AsError(ferr).Code == api.CodeUnavailable {
					return ferr
				}
				return nil
			}
			var p P
			if json.Unmarshal(raw, &p) != nil {
				return nil
			}
			mu.Lock()
			PP(&out).Merge(rep.ID, p)
			merged++
			mu.Unlock()
			return nil
		})
		if merged > 0 {
			err = nil
		}
		obs.WriteDebug(w, out, err)
	}
}
