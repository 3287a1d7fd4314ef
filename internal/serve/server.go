// Package serve turns SICKLE-Go's offline pipeline into an online service:
// a versioned HTTP JSON API (the pkg/api wire contract) over the trained
// surrogates (micro-batched inference through a bounded worker pool), the
// subsampling pipeline (datasets and .skl shards resolved through a
// bounded LRU cache), and an asynchronous job manager for long-running
// subsample/train work, with health and Prometheus-style metrics
// endpoints. Cancellation is context-first end to end: every request and
// job carries a context.Context that reaches the batcher queues, replica
// acquisition, the cache, and the sampling/training loops.
//
// With Config.DataDir set the job manager is durable (internal/durable):
// submissions are fsync'd to a write-ahead log before acknowledgment and
// recovered on restart, results persist on disk, client idempotency keys
// deduplicate retried submissions, and identical subsample jobs are
// served byte-identically from a content-addressed cache.
//
// Two API versions are served: /v2 (typed error envelope, jobs) and /v1, a
// thin frozen shim over the same types that keeps the original payloads
// byte-compatible. cmd/sickle-serve is the binary; cmd/sickle-bench -serve
// is the matching load generator, built on pkg/client.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/obs/events"
	olog "repro/internal/obs/log"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	Addr         string        // listen address (default :8080)
	MaxBatch     int           // micro-batch cap (default 16)
	Window       time.Duration // batch collection window (default 2ms)
	Workers      int           // worker pool size (default GOMAXPROCS)
	QueueCap     int           // per-model queue bound before 429s (default 1024)
	CacheEntries int           // LRU capacity for datasets/shards (default 8)
	Replicas     int           // model replicas per registered model (default 2)
	JobWorkers   int           // concurrent jobs (default 2)
	MaxJobs      int           // live-job admission bound (default 64)
	JobTTL       time.Duration // terminal-job retention (default 15m)

	// DataDir, when set, makes jobs durable: submissions are fsync'd to
	// a write-ahead log under this directory before they are
	// acknowledged, results persist on disk, identical subsample jobs
	// are served from a content-addressed cache, and a restart on the
	// same directory recovers job state (re-enqueuing interrupted
	// jobs). Empty keeps the pre-durability in-memory behavior.
	DataDir string

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

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
}

// Server wires the registry, batcher, cache, job manager and metrics
// behind an HTTP mux.
type Server struct {
	cfg      Config
	reg      *Registry
	batcher  *Batcher
	cache    *LRU
	jobs     *JobManager
	met      *Metrics
	tracer   *obs.Tracer
	logger   *olog.Logger
	journal  *events.Journal
	history  *tsdb.Store
	sloEng   *slo.Engine
	durable  *durable.Store // nil without Config.DataDir
	httpSrv  *http.Server
	start    time.Time
	draining atomic.Bool

	// testProgressHook, when set (tests only), is invoked from inside the
	// sampling pipeline's per-cube progress callback during subsample jobs
	// — the coordination point for deterministic mid-job cancellation.
	testProgressHook func(done, total int)
}

// NewServer builds a ready-to-listen server. With Config.DataDir set it
// opens (creating if needed) the durability store there and replays the
// write-ahead job log — the only error path; an unusable data dir must
// refuse to start rather than silently serve without durability.
func NewServer(cfg Config) (*Server, error) {
	cfg.defaults()
	met := NewMetrics()
	reg := NewRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		batcher: NewBatcher(reg, met, cfg.MaxBatch, cfg.Window, cfg.Workers, cfg.QueueCap),
		cache:   NewLRU(cfg.CacheEntries),
		jobs:    NewJobManager(cfg.JobWorkers, cfg.MaxJobs, cfg.JobTTL),
		met:     met,
		tracer:  obs.NewTracer("serve", cfg.TraceCapacity),
		logger:  cfg.Logger,
		journal: events.NewJournal("serve", cfg.EventCapacity),
		start:   time.Now(),
	}
	met.SetJobStatsFunc(s.jobs.Stats)
	s.jobs.SetExecHook(met.ObserveExecution)
	s.batcher.SetTracer(s.tracer)
	s.jobs.SetTracer(s.tracer)
	s.jobs.SetPanicHook(func(id string, typ api.JobType, traceID, msg string) {
		s.journal.Emit(events.TypeJobPanic, "job panicked (recovered)", traceID,
			"job", id, "type", string(typ), "panic", msg)
	})
	s.tracer.RegisterDropped(met.Registry())
	s.journal.Register(met.Registry())
	if cfg.DataDir != "" {
		st, records, err := durable.Open(cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("serve: open data dir %s: %w", cfg.DataDir, err)
		}
		s.durable = st
		st.Register(met.Registry())
		s.jobs.SetDurable(st, func(err error) {
			s.logger.Error("wal append failed; next submission will be refused",
				"err", err.Error())
		})
		s.recoverJobs(records)
	}
	s.history = tsdb.NewStore("serve", met.Registry(), cfg.HistoryInterval, cfg.HistoryCapacity)
	s.sloEng = slo.NewEngine("serve", s.history, slo.ServeMetrics, cfg.SLOs,
		met.Registry(), s.journal)
	s.history.Start()
	s.httpSrv = &http.Server{Addr: cfg.Addr, Handler: s.Handler()}
	return s, nil
}

// recoverJobs replays the folded WAL records into the job manager:
// terminal jobs within the retention TTL come back queryable (succeeded
// ones with their result blob — a succeeded record whose result is
// missing or corrupt is re-run instead, since the WAL promised a result
// it cannot produce), interrupted pending/running jobs are re-enqueued
// from their persisted submission payload, and expired jobs are
// dropped. Retained jobs are re-appended to the fresh WAL, which Seal
// then atomically compacts over the old one.
func (s *Server) recoverJobs(records []durable.JobRecord) {
	ttl := s.cfg.JobTTL
	if ttl <= 0 {
		ttl = defaultJobTTL
	}
	wal := s.durable.WAL
	type restore struct {
		job    api.Job
		run    JobRunner
		result *api.JobResult
		action string
	}
	var restores []restore
	for _, rec := range records {
		job := api.Job{
			ID: rec.ID, Type: rec.Type, State: rec.State, Error: rec.Err,
			CreatedAt: rec.Created, StartedAt: rec.Started, FinishedAt: rec.Finished,
			IdempotencyKey: rec.Key, ReservedFor: rec.ReservedFor,
		}
		// A reservation expires like history, counted from its creation
		// (see JobManager.purgeLocked).
		expired := rec.State.Terminal() && time.Since(rec.Finished) > ttl ||
			rec.ReservedFor != "" && !rec.State.Terminal() && time.Since(rec.Created) > ttl
		if expired {
			s.durable.Results.Delete(rec.ID)
			wal.CountRecovered("dropped")
			continue
		}
		reappendSubmit := func() {
			kind := durable.KindSubmit
			if rec.ReservedFor != "" {
				kind = durable.KindReserve
			}
			wal.Append(durable.Record{
				Kind: kind, ID: rec.ID, Type: string(rec.Type), Key: rec.Key,
				Payload: rec.Payload, ReservedFor: rec.ReservedFor, Time: rec.Created,
			})
		}
		reappendTerminal := func(j api.Job) {
			wal.Append(durable.Record{
				Kind: durable.KindTerminal, ID: j.ID, State: string(j.State),
				Error: j.Error, Time: j.FinishedAt,
			})
		}
		if rec.State.Terminal() {
			var result *api.JobResult
			lost := false
			if rec.State == api.JobSucceeded {
				if b, err := s.durable.Results.Get(rec.ID); err == nil {
					result = &api.JobResult{}
					if json.Unmarshal(b, result) != nil {
						result, lost = nil, true
					}
				} else {
					lost = true
					s.durable.Results.Delete(rec.ID)
				}
			}
			if !lost {
				reappendSubmit()
				reappendTerminal(job)
				restores = append(restores, restore{job: job, result: result, action: "restored"})
				continue
			}
			// Fall through: recompute the lost result below.
		}
		if rec.ReservedFor != "" {
			// A held copy never ran here: a reservation stays held, and a
			// settled copy whose result was lost goes back to being one, to
			// be settled again or activated.
			job.State, job.Error, job.FinishedAt = api.JobPending, nil, time.Time{}
			reappendSubmit()
			restores = append(restores, restore{job: job, action: "reserved"})
			continue
		}
		var req api.SubmitJobRequest
		runner := JobRunner(nil)
		if json.Unmarshal(rec.Payload, &req) == nil {
			runner, _ = s.runnerFor(&req)
		}
		if runner == nil {
			// Interrupted and unrecoverable: mark it failed so the client
			// gets a truthful terminal answer instead of a vanished job.
			job.State = api.JobFailed
			job.Error = api.Errorf(api.CodeInternal,
				"serve: job %s interrupted by restart; submission payload unrecoverable", rec.ID)
			job.FinishedAt = time.Now()
			reappendSubmit()
			reappendTerminal(job)
			restores = append(restores, restore{job: job, action: "interrupted"})
			continue
		}
		reappendSubmit()
		restores = append(restores, restore{job: job, run: runner, action: "reenqueued"})
	}
	// Seal first so the runners the restores spawn append to a log whose
	// every record is individually fsync'd.
	if err := s.durable.Seal(); err != nil {
		s.logger.Error("wal compaction failed", "err", err.Error())
	}
	for _, r := range restores {
		s.jobs.Restore(r.job, r.run, r.result)
		wal.CountRecovered(r.action)
		s.journal.Emit(events.TypeRecovery, "job recovered from WAL", "",
			"job", r.job.ID, "action", r.action, "state", string(r.job.State))
	}
	if n := len(records); n > 0 {
		s.logger.Info("wal replayed", "jobs", n, "restored", len(restores))
	}
}

// runnerFor builds the runner a submission (live or recovered) asks for.
func (s *Server) runnerFor(req *api.SubmitJobRequest) (JobRunner, error) {
	switch req.Type {
	case api.JobSubsample:
		if req.Subsample == nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "subsample job needs a subsample payload")
		}
		return s.subsampleJobRunner(*req.Subsample), nil
	case api.JobTrain:
		if req.Train == nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "train job needs a train payload")
		}
		return s.trainJobRunner(*req.Train), nil
	default:
		return nil, api.Errorf(api.CodeInvalidArgument,
			"unknown job type %q (want %q or %q)", req.Type, api.JobSubsample, api.JobTrain)
	}
}

// Registry exposes the model registry for pre-registering models.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the collector (tests assert on mean batch size).
func (s *Server) Metrics() *Metrics { return s.met }

// Cache exposes the dataset/shard LRU.
func (s *Server) Cache() *LRU { return s.cache }

// Jobs exposes the job manager (tests and embedders).
func (s *Server) Jobs() *JobManager { return s.jobs }

// Tracer exposes the span ring behind /debug/traces (tests and embedders).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Journal exposes the event journal behind /debug/events.
func (s *Server) Journal() *events.Journal { return s.journal }

// Durable exposes the durability store (nil without Config.DataDir).
// Embedders and crash-recovery tests use it for fault injection:
// Store.WAL.SetCrashPoint arms a stage-precise freeze, Store.Freeze
// simulates process death outright.
func (s *Server) Durable() *durable.Store { return s.durable }

// History exposes the metrics-history store behind /debug/history.
func (s *Server) History() *tsdb.Store { return s.history }

// SLO exposes the burn-rate engine behind /debug/slo.
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// Handler returns the route mux (also usable under httptest). The /v1
// routes are the frozen compatibility shim; /v2 is the current surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.tracer.Mount(mux)
	s.journal.Mount(mux)
	s.history.Mount(mux)
	s.sloEng.Mount(mux)
	mux.HandleFunc("GET /api/version", s.instrument("/api/version", s.handleVersion))

	// v1: legacy envelope, original status mapping.
	mux.HandleFunc("/v1/infer", s.instrument("/v1/infer", s.handleInferV1))
	mux.HandleFunc("/v1/subsample", s.instrument("/v1/subsample", s.handleSubsampleV1))
	mux.HandleFunc("/v1/models", s.instrument("/v1/models", s.handleModelsV1))

	// v2: typed envelope + jobs.
	mux.HandleFunc("POST /v2/infer", s.instrument("/v2/infer", s.handleInferV2))
	mux.HandleFunc("POST /v2/subsample", s.instrument("/v2/subsample", s.handleSubsampleV2))
	mux.HandleFunc("GET /v2/models", s.instrument("/v2/models", s.handleListModelsV2))
	mux.HandleFunc("POST /v2/models", s.instrument("/v2/models", s.handleRegisterModelV2))
	mux.HandleFunc("POST /v2/jobs", s.instrument("/v2/jobs", s.handleSubmitJob))
	mux.HandleFunc("GET /v2/jobs", s.instrument("/v2/jobs", s.handleListJobs))
	mux.HandleFunc("GET /v2/jobs/{id}", s.instrument("/v2/jobs/{id}", s.handleGetJob))
	mux.HandleFunc("DELETE /v2/jobs/{id}", s.instrument("/v2/jobs/{id}", s.handleCancelJob))
	mux.HandleFunc("GET /v2/jobs/{id}/result", s.instrument("/v2/jobs/{id}/result", s.handleJobResult))
	mux.HandleFunc("GET /v2/keys/{key}", s.instrument("/v2/keys/{key}", s.handleGetJobByKey))
	mux.HandleFunc("PUT /v2/keys/{key}", s.instrument("/v2/keys/{key}", s.handleSettleKey))

	// Keep the "every v2 failure is a typed envelope" contract even for
	// requests the method-qualified patterns above don't match: a generic
	// (method-less) registration per route loses to the specific pattern
	// for matching methods and catches the rest with a typed 405; the /v2/
	// prefix fallback turns unknown paths into a typed 404 instead of the
	// mux's plain-text page.
	methodNotAllowed := func(allow string) func(http.ResponseWriter, *http.Request) error {
		return func(w http.ResponseWriter, r *http.Request) error {
			w.Header().Set("Allow", allow)
			return writeAPIError(w, api.Errorf(api.CodeMethodNotAllowed, "%s only", allow))
		}
	}
	mux.HandleFunc("/v2/infer", s.instrument("/v2/infer", methodNotAllowed("POST")))
	mux.HandleFunc("/v2/subsample", s.instrument("/v2/subsample", methodNotAllowed("POST")))
	mux.HandleFunc("/v2/models", s.instrument("/v2/models", methodNotAllowed("GET, POST")))
	mux.HandleFunc("/v2/jobs", s.instrument("/v2/jobs", methodNotAllowed("GET, POST")))
	mux.HandleFunc("/v2/keys/{key}", s.instrument("/v2/keys/{key}", methodNotAllowed("GET, PUT")))
	mux.HandleFunc("/v2/jobs/{id}", s.instrument("/v2/jobs/{id}", methodNotAllowed("GET, DELETE")))
	mux.HandleFunc("/v2/jobs/{id}/result", s.instrument("/v2/jobs/{id}/result", methodNotAllowed("GET")))
	mux.HandleFunc("/v2/", s.instrument("/v2/", func(w http.ResponseWriter, r *http.Request) error {
		return writeAPIError(w, api.Errorf(api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	}))
	mux.HandleFunc("/api/version", s.instrument("/api/version", methodNotAllowed("GET")))
	return mux
}

// ListenAndServe blocks serving on cfg.Addr until Shutdown.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve blocks serving on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains gracefully: new batcher admissions fail fast with the
// typed shutting_down error, the HTTP server stops accepting and waits for
// in-flight handlers (each bounded by its own request context), running
// jobs are canceled (their state becomes canceled/shutting_down), and
// finally the batcher is torn down — a request admitted before Shutdown
// always gets either its real response or a typed shutting_down error,
// never a hang.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	s.jobs.Close()
	s.batcher.Stop()
	s.history.Stop()
	if cerr := s.durable.Close(); err == nil {
		err = cerr
	}
	return err
}

// instrument wraps a handler with latency/error accounting, a server span
// (joining the caller's trace when an X-Sickle-Trace header is present,
// minting one otherwise), and a trace-ID-stamped request log.
func (s *Server) instrument(route string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tc, ok := api.ParseTraceHeader(r.Header.Get(api.TraceHeader)); ok {
			ctx = api.WithTrace(ctx, tc)
		}
		ctx, span := s.tracer.StartSpan(ctx, "server:"+route)
		span.SetAttr("method", r.Method)
		t0 := time.Now()
		s.met.AddInflight(1)
		err := h(w, r.WithContext(ctx))
		s.met.AddInflight(-1)
		d := time.Since(t0)
		s.met.ObserveRequestEx(route, d, err != nil, span.TraceID())
		if err != nil {
			span.SetAttr("error", string(api.AsError(err).Code))
		}
		span.End()
		if s.logger.Enabled(olog.LevelDebug) || err != nil {
			kv := []any{"route", route, "method", r.Method,
				"trace", span.TraceID(), "seconds", d.Seconds()}
			if err != nil {
				s.logger.Warn("request failed", append(kv, "error", err.Error())...)
			} else {
				s.logger.Debug("request", kv...)
			}
		}
	}
}

// ---- shared core (both API versions decode into pkg/api types) ----

func specToArch(s api.ModelSpec) train.ArchSpec {
	return train.ArchSpec{Arch: s.Arch, InDim: s.InDim, Hidden: s.Hidden,
		Heads: s.Heads, OutDim: s.OutDim, Edge: s.Edge}
}

func archToSpec(a train.ArchSpec) api.ModelSpec {
	return api.ModelSpec{Arch: a.Arch, InDim: a.InDim, Hidden: a.Hidden,
		Heads: a.Heads, OutDim: a.OutDim, Edge: a.Edge}
}

func entryToInfo(e *ModelEntry) api.ModelInfo {
	return api.ModelInfo{Name: e.Name, Version: e.Version, Spec: archToSpec(e.Spec),
		Checkpoint: e.Checkpoint, InputShape: e.InputShape, Replicas: e.Replicas}
}

func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return api.Errorf(api.CodeInvalidArgument, "bad JSON: %v", err)
	}
	return nil
}

// doInfer validates, fans the items into the batcher under the request
// context, and gathers per-item outputs in order.
func (s *Server) doInfer(ctx context.Context, req *api.InferRequest) (*api.InferResponse, error) {
	if req.Model == "" || len(req.Items) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "need model and at least one item")
	}
	if _, ok := s.reg.Lookup(req.Model); !ok {
		return nil, api.Errorf(api.CodeModelNotFound, "unknown model %q", req.Model)
	}
	inputs := make([]*tensor.Tensor, len(req.Items))
	for i, it := range req.Items {
		n := 1
		for _, d := range it.Shape {
			if d <= 0 {
				return nil, api.Errorf(api.CodeInvalidArgument, "item %d: bad shape %v", i, it.Shape)
			}
			n *= d
		}
		if len(it.Shape) == 0 || n != len(it.Data) {
			return nil, api.Errorf(api.CodeInvalidArgument,
				"item %d: shape %v wants %d values, got %d", i, it.Shape, n, len(it.Data))
		}
		inputs[i] = tensor.FromSlice(it.Data, it.Shape...)
	}
	// Enqueue every item separately so items from concurrent clients can
	// share micro-batches, then gather in order.
	type itemOut struct {
		out     *tensor.Tensor
		version int
		batch   int
		err     error
	}
	outs := make([]itemOut, len(inputs))
	done := make(chan int, len(inputs))
	for i := range inputs {
		go func(i int) {
			o, v, bsz, err := s.batcher.Infer(ctx, req.Model, inputs[i])
			outs[i] = itemOut{o, v, bsz, err}
			done <- i
		}(i)
	}
	for range inputs {
		<-done
	}
	resp := &api.InferResponse{Model: req.Model}
	for i, o := range outs {
		if o.err != nil {
			ae := api.AsError(o.err)
			return nil, api.Errorf(ae.Code, "item %d: %s", i, ae.Message).WithRetryAfter(ae.RetryAfterSeconds)
		}
		resp.Version = o.version
		resp.Outputs = append(resp.Outputs, api.InferItem{Shape: o.out.Shape, Data: o.out.Data})
		resp.BatchSizes = append(resp.BatchSizes, o.batch)
	}
	return resp, nil
}

func (s *Server) doRegisterModel(req *api.RegisterModelRequest) (api.ModelInfo, error) {
	replicas := req.Replicas
	if replicas <= 0 {
		replicas = s.cfg.Replicas
	}
	e, err := s.reg.Register(req.Name, specToArch(req.Spec), req.Checkpoint, req.InputShape, replicas)
	if err != nil {
		return api.ModelInfo{}, api.Errorf(api.CodeInvalidArgument, "%s", err.Error())
	}
	if e.Version > 1 {
		s.journal.Emit(events.TypeHotSwap, "model checkpoint hot-swapped", "",
			"model", e.Name, "version", fmt.Sprint(e.Version),
			"checkpoint", e.Checkpoint)
	}
	return entryToInfo(e), nil
}

func (s *Server) listModels() []api.ModelInfo {
	entries := s.reg.List()
	out := make([]api.ModelInfo, len(entries))
	for i, e := range entries {
		out[i] = entryToInfo(e)
	}
	return out
}

// ---- v1 handlers (frozen compatibility shim) ----

func (s *Server) handleInferV1(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return writeLegacyError(w, api.Errorf(api.CodeMethodNotAllowed, "POST only"), 0)
	}
	var req api.InferRequest
	if err := decodeBody(r, &req); err != nil {
		return writeLegacyError(w, err, 0)
	}
	resp, err := s.doInfer(r.Context(), &req)
	if err != nil {
		return writeLegacyError(w, err, 0)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubsampleV1(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return writeLegacyError(w, api.Errorf(api.CodeMethodNotAllowed, "POST only"), 0)
	}
	var req api.SubsampleRequest
	if err := decodeBody(r, &req); err != nil {
		return writeLegacyError(w, err, 0)
	}
	resp, err := s.doSubsample(r.Context(), &req, nil)
	if err != nil {
		// v1 reported every pipeline failure as a 400.
		return writeLegacyError(w, err, http.StatusBadRequest)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModelsV1(w http.ResponseWriter, r *http.Request) error {
	switch r.Method {
	case http.MethodGet:
		return writeJSON(w, http.StatusOK, s.listModels())
	case http.MethodPost:
		var req api.RegisterModelRequest
		if err := decodeBody(r, &req); err != nil {
			return writeLegacyError(w, err, 0)
		}
		info, err := s.doRegisterModel(&req)
		if err != nil {
			return writeLegacyError(w, err, http.StatusBadRequest)
		}
		return writeJSON(w, http.StatusOK, info)
	default:
		return writeLegacyError(w, api.Errorf(api.CodeMethodNotAllowed, "GET or POST"), 0)
	}
}

// ---- v2 handlers (typed envelope) ----

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, api.VersionInfo{
		Versions: api.SupportedVersions(), Latest: api.Latest,
	})
}

func (s *Server) handleInferV2(w http.ResponseWriter, r *http.Request) error {
	var req api.InferRequest
	if err := decodeBody(r, &req); err != nil {
		return writeAPIError(w, err)
	}
	resp, err := s.doInfer(r.Context(), &req)
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubsampleV2(w http.ResponseWriter, r *http.Request) error {
	var req api.SubsampleRequest
	if err := decodeBody(r, &req); err != nil {
		return writeAPIError(w, err)
	}
	resp, err := s.doSubsample(r.Context(), &req, nil)
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListModelsV2(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, s.listModels())
}

func (s *Server) handleRegisterModelV2(w http.ResponseWriter, r *http.Request) error {
	var req api.RegisterModelRequest
	if err := decodeBody(r, &req); err != nil {
		return writeAPIError(w, err)
	}
	info, err := s.doRegisterModel(&req)
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		return writeAPIError(w, errShuttingDown())
	}
	var req api.SubmitJobRequest
	if err := decodeBody(r, &req); err != nil {
		return writeAPIError(w, err)
	}
	runner, err := s.runnerFor(&req)
	if err != nil {
		return writeAPIError(w, err)
	}
	if req.ReserveFor != "" && req.IdempotencyKey == "" {
		return writeAPIError(w, api.Errorf(api.CodeInvalidArgument, "a reservation needs an idempotency key"))
	}
	opts := SubmitOptions{Key: req.IdempotencyKey, ReserveFor: req.ReserveFor}
	if s.durable != nil {
		if b, merr := json.Marshal(&req); merr == nil {
			opts.Payload = b
		}
	}
	job, dup, err := s.jobs.SubmitWith(r.Context(), req.Type, runner, opts)
	if err != nil {
		return writeAPIError(w, err)
	}
	if dup {
		// A keyed resubmission deduplicated onto its original job: 200
		// (nothing new was created) with the original snapshot.
		tc, _ := api.TraceFrom(r.Context())
		s.journal.Emit(events.TypeDedupHit, "idempotent resubmission returned original job",
			tc.TraceID, "job", job.ID, "kind", "idempotency_key")
		return writeJSON(w, http.StatusOK, job)
	}
	return writeJSON(w, http.StatusAccepted, job)
}

// handleListJobs lists the jobs this replica runs: held copies of keyed
// jobs running elsewhere stay reachable by key and ID but are not listed.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) error {
	jobs := s.jobs.List()
	own := jobs[:0]
	for _, j := range jobs {
		if j.ReservedFor == "" {
			own = append(own, j)
		}
	}
	return writeJSON(w, http.StatusOK, own)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) error {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, job)
}

// handleGetJobByKey answers "do you hold idempotency key X?" — the
// owner-set consultation a shard router runs before admitting a keyed
// resubmission, so a key claimed anywhere in a key's owner set maps to
// exactly one fleet-wide job.
func (s *Server) handleGetJobByKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return writeAPIError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	job, err := s.jobs.GetByKey(key)
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, job)
}

// handleSettleKey stores a keyed job's terminal outcome over this
// replica's reservation for the key: the settle step a shard router runs
// before it first returns the terminal state to a client.
func (s *Server) handleSettleKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return writeAPIError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	var req api.SettleRequest
	if err := decodeBody(r, &req); err != nil {
		return writeAPIError(w, err)
	}
	job, err := s.jobs.Settle(key, req.Job, req.Result)
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	res, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		return writeAPIError(w, err)
	}
	return writeJSON(w, http.StatusOK, res)
}

// ---- shared plain endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	models := []string{}
	for _, e := range s.reg.List() {
		models = append(models, fmt.Sprintf("%s@v%d", e.Name, e.Version))
	}
	return writeJSON(w, http.StatusOK, api.Health{
		Status:        s.sloEng.Status(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        models,
		QueueDepth:    s.batcher.QueueDepth(),
		Jobs:          s.jobs.Stats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.met.Render(s.cache))
}
