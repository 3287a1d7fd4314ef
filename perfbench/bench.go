package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/sickle"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
)

const (
	poolSize     = 8                     // distinct infer inputs, sent round-robin
	pollEvery    = 10 * time.Millisecond // job status poll interval
	repeatEvery  = 4                     // every 4th subsample submission repeats a fixed request
	lossSeeds    = 8                     // train_loss averages this many leading train jobs
	maxClients   = 2                     // goroutines and connections per host at most: nproc on the reference host
	inferTimeout = 10 * time.Second
	jobTimeout   = 60 * time.Second
)

var (
	subsampleDatasets = []string{"GESTS-8192", "SST-P1F100"}
	// subsampleCells are the (hypercube selector, point sampler) pairs the
	// subsample job requests cycle through (set-up and the job probe).
	subsampleCells = [][2]string{{"maxent", "uips"}, {"maxent", "maxent"}, {"random", "random"}}
	trainArch      = api.ModelSpec{Arch: "mlp_transformer", InDim: 4, Hidden: 32, Heads: 4, OutDim: 1, Edge: 8}
)

// bench holds one run's seeded inputs, the fleet they are sent to, and
// the correctness gates' state.
type bench struct {
	f    *fleet
	seed int64
	rec  *recorder // nil unless this phase is traced

	pool, refs []api.InferItem

	repeatReq api.SubsampleRequest
	repeatRes []byte // the repeat request's first result, from warm-up

	subRNG   *rand.Rand // the job probe's subsample request stream
	trainRNG *rand.Rand // train job seed stream (one client)

	polls    atomic.Int64
	accepted atomic.Int64 // job submissions the router accepted

	mu         sync.Mutex
	mismatches []string
	trainRes   []trainJob // in submission order

	// Job probe results, written and read by one goroutine.
	repeatsSent, repeatsSame int
	overheadMS               []float64 // round trip minus direct pipeline
}

type trainJob struct {
	seed int64
	res  api.TrainJobResult
}

func newBench(f *fleet, seed int64) (*bench, error) {
	b := &bench{f: f, seed: seed, trainRNG: rand.New(rand.NewSource(seed ^ 0x7a11))}
	b.subRNG = rand.New(rand.NewSource(seed*31 + 1))
	rng := rand.New(rand.NewSource(seed))
	shape := f.demo.InputShape
	n := 1
	for _, d := range shape {
		n *= d
	}
	for i := 0; i < poolSize; i++ {
		data := make([]float64, n)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		b.pool = append(b.pool, api.InferItem{Shape: shape, Data: data})
	}
	b.repeatReq = api.SubsampleRequest{
		Dataset: subsampleDatasets[0], Scale: "small", Hypercubes: "maxent", Method: "uips",
		NumHypercubes: 12, NumSamples: 410, Cube: 16, Seed: rng.Int63n(1 << 31),
	}
	// References: an unbatched in-process forward pass of each input.
	reg := serve.NewRegistry()
	e, err := reg.Register(modelName, f.demo.Spec, f.demo.Checkpoint, shape, 1)
	if err != nil {
		return nil, err
	}
	for _, in := range b.pool {
		out, err := forwardOne(context.Background(), e, in)
		if err != nil {
			return nil, err
		}
		b.refs = append(b.refs, out)
	}
	return b, nil
}

// forwardOne runs one unbatched forward pass: acquire a model replica,
// forward a batch of one, release.
func forwardOne(ctx context.Context, e *serve.ModelEntry, in api.InferItem) (api.InferItem, error) {
	m, err := e.Acquire(ctx)
	if err != nil {
		return api.InferItem{}, err
	}
	defer e.Release(m)
	x := tensor.FromSlice(slices.Clone(in.Data), append([]int{1}, in.Shape...)...)
	out := m.Forward(x)
	return api.InferItem{Shape: slices.Clone(out.Shape[1:]), Data: slices.Clone(out.Data)}, nil
}

func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.mismatches) < 20 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

func sameItem(a, b api.InferItem) bool {
	return slices.Equal(a.Shape, b.Shape) && slices.EqualFunc(a.Data, b.Data,
		func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// inferOp sends one single-item infer request through the router and
// checks the output bit for bit against the unbatched reference.
func (b *bench) inferOp(ctx context.Context, root *active, client, i int) (time.Duration, error) {
	k := (client + i) % poolSize
	ctx, cancel := context.WithTimeout(ctx, inferTimeout)
	defer cancel()
	var resp *api.InferResponse
	d, err := timed(root, "shard.infer", func() (err error) {
		resp, err = b.f.c.Infer(ctx, &api.InferRequest{Model: modelName, Items: b.pool[k : k+1]})
		return err
	})
	if err != nil {
		return d, err
	}
	if len(resp.Outputs) != 1 || !sameItem(resp.Outputs[0], b.refs[k]) {
		b.mismatch("infer input %d: output differs from the unbatched forward pass", k)
	}
	return d, nil
}

// runJob submits req through the router under a fresh idempotency key,
// polls its status at a fixed interval until it is terminal, and fetches
// the result. The latency runs from submission to the result in hand.
func (b *bench) runJob(ctx context.Context, root *active, req api.SubmitJobRequest) (*api.JobResult, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	req.IdempotencyKey = api.NewIdempotencyKey()
	t0 := time.Now()
	var job *api.Job
	if _, err := timed(root, "shard.submit", func() (err error) {
		job, err = b.f.c.SubmitJob(ctx, &req)
		return err
	}); err != nil {
		return nil, 0, err
	}
	b.accepted.Add(1)
	for !job.State.Terminal() {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(pollEvery):
		}
		b.polls.Add(1)
		id := job.ID
		if _, err := timed(root, "jobs.poll", func() (err error) {
			job, err = b.f.c.Job(ctx, id)
			return err
		}); err != nil {
			return nil, 0, err
		}
	}
	if job.State != api.JobSucceeded {
		return nil, 0, fmt.Errorf("job %s ended %s: %v", job.ID, job.State, job.Error)
	}
	var res *api.JobResult
	if _, err := timed(root, "jobs.result", func() (err error) {
		res, err = b.f.c.JobResult(ctx, job.ID)
		return err
	}); err != nil {
		return nil, 0, err
	}
	return res, time.Since(t0), nil
}

// subsampleRequest is the i-th subsample request of the job probe:
// every repeatEvery-th one is the fixed repeat request, the rest
// alternate datasets and cycle the selector/sampler cells with seeded
// seeds and snapshots.
func (b *bench) subsampleRequest(i int) (api.SubsampleRequest, bool) {
	if i%repeatEvery == repeatEvery-1 {
		return b.repeatReq, true
	}
	ds := subsampleDatasets[i%len(subsampleDatasets)]
	cell := subsampleCells[(i/len(subsampleDatasets))%len(subsampleCells)]
	snap := 0
	if ds == "SST-P1F100" {
		snap = b.subRNG.Intn(4)
	}
	return api.SubsampleRequest{
		Dataset: ds, Scale: "small", Snapshot: snap, Hypercubes: cell[0], Method: cell[1],
		NumHypercubes: 12, NumSamples: 410, Cube: 16, Seed: b.subRNG.Int63n(1 << 31),
	}, false
}

// subsampleJob runs the i-th keyed subsample job under root. A repeat's
// result must equal the first result byte for byte (the
// content-addressed cache serves it). Any other request also runs
// directly through the sampling pipeline: its counts must match, and the
// difference in time is the job machinery's overhead.
func (b *bench) subsampleJob(ctx context.Context, root *active, i int) error {
	req, repeat := b.subsampleRequest(i)
	res, lat, err := b.runJob(ctx, root, api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &req})
	if err != nil {
		return err
	}
	if res.Subsample == nil {
		return fmt.Errorf("subsample job returned no subsample result")
	}
	if repeat {
		got, err := json.Marshal(res)
		if err != nil {
			return err
		}
		b.repeatsSent++
		if string(got) == string(b.repeatRes) {
			b.repeatsSame++
		} else {
			b.mismatch("repeat subsample result %s differs from the first %s", got, b.repeatRes)
		}
		return nil
	}
	d, err := timed(root, "sampling.direct", func() error {
		return b.verifySubsample(ctx, req, res.Subsample.Cubes, res.Subsample.Points)
	})
	if err != nil {
		return err
	}
	b.overheadMS = append(b.overheadMS, ms(lat-d))
	return nil
}

// trainSpec is the i-th train job: maxent/uips over 24 cubes of 8³ of
// GESTS-2048, then an MLP-Transformer for 20 epochs at batch 4.
func trainSpec(seed int64) api.TrainJobSpec {
	return api.TrainJobSpec{
		Dataset: "GESTS-2048", Scale: "small",
		Subsample: &api.SubsampleRequest{Hypercubes: "maxent", Method: "uips", NumHypercubes: 24, Cube: 8, Seed: seed},
		Spec:      trainArch, Epochs: 20, Batch: 4, Seed: seed,
	}
}

func (b *bench) trainOp(ctx context.Context, root *active, _, _ int) (time.Duration, error) {
	b.mu.Lock()
	seed := b.trainRNG.Int63n(1 << 31)
	b.mu.Unlock()
	spec := trainSpec(seed)
	res, lat, err := b.runJob(ctx, root, api.SubmitJobRequest{Type: api.JobTrain, Train: &spec})
	if err != nil {
		return 0, err
	}
	if res.Train == nil {
		return 0, fmt.Errorf("train job returned no train result")
	}
	b.mu.Lock()
	b.trainRes = append(b.trainRes, trainJob{seed: seed, res: *res.Train})
	b.mu.Unlock()
	return lat, nil
}

// pipelineConfig mirrors how a replica turns a subsample request into
// sampling parameters (the cube edge clamped to the grid).
func pipelineConfig(req api.SubsampleRequest, f *grid.Field) sampling.PipelineConfig {
	edge := req.Cube
	if edge <= 0 {
		edge = 16
	}
	return sampling.PipelineConfig{
		Hypercubes: req.Hypercubes, Method: req.Method, NumHypercubes: req.NumHypercubes,
		NumSamples: req.NumSamples, NumClusters: req.NumClusters, Seed: req.Seed,
		CubeSx: min(edge, f.Nx), CubeSy: min(edge, f.Ny), CubeSz: min(edge, f.Nz),
	}
}

// verifySubsample re-runs a job's request directly through the sampling
// pipeline and checks the cube and point counts the job reported.
func (b *bench) verifySubsample(ctx context.Context, req api.SubsampleRequest, cubes, points int) error {
	d, err := sickle.BuildDataset(req.Dataset, sickle.Small)
	if err != nil {
		return err
	}
	direct, err := sampling.SubsampleSnapshot(ctx, d, req.Snapshot, pipelineConfig(req, d.Snapshots[req.Snapshot]))
	if err != nil {
		return err
	}
	n := 0
	for _, c := range direct {
		n += len(c.LocalIdx)
	}
	if len(direct) != cubes || n != points {
		b.mismatch("subsample %+v: job reported %d cubes/%d points, direct run %d/%d",
			req, cubes, points, len(direct), n)
	}
	return nil
}

func archSpec(s api.ModelSpec) train.ArchSpec {
	return train.ArchSpec{Arch: s.Arch, InDim: s.InDim, Hidden: s.Hidden, Heads: s.Heads, OutDim: s.OutDim, Edge: s.Edge}
}

// trainExamples runs a train job's data pipeline in process: subsample
// the dataset and build the examples.
func trainExamples(ctx context.Context, spec api.TrainJobSpec) ([]train.Example, error) {
	d, err := sickle.BuildDataset(spec.Dataset, sickle.Small)
	if err != nil {
		return nil, err
	}
	cubes, err := sampling.SubsampleDataset(ctx, d, pipelineConfig(*spec.Subsample, d.Snapshots[0]))
	if err != nil {
		return nil, err
	}
	return train.BuildSampleFull(d, cubes, 1)
}

// trainOnce trains a train job's model on ex and returns its final loss.
func trainOnce(ctx context.Context, spec api.TrainJobSpec, ex []train.Example) (float64, error) {
	_, hist, err := train.Train(ctx, archSpec(spec.Spec).Factory(), ex,
		train.Config{Epochs: spec.Epochs, Batch: spec.Batch, Seed: spec.Seed})
	if err != nil {
		return 0, err
	}
	return hist.FinalLoss, nil
}

// verify checks the first train job, a gate too costly to run inside
// a timed phase, against an in-process run of the same spec and seed.
func (b *bench) verify(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.trainRes) == 0 {
		return nil
	}
	first := b.trainRes[0]
	spec := trainSpec(first.seed)
	ex, err := trainExamples(ctx, spec)
	if err != nil {
		return err
	}
	loss, err := trainOnce(ctx, spec, ex)
	if err != nil {
		return err
	}
	if first.res.Examples != len(ex) || first.res.Epochs != spec.Epochs || math.IsNaN(first.res.FinalLoss) {
		b.mismatches = append(b.mismatches, fmt.Sprintf(
			"train job seed %d: %d examples over %d epochs, loss %v; direct run %d examples over %d epochs",
			first.seed, first.res.Examples, first.res.Epochs, first.res.FinalLoss, len(ex), spec.Epochs))
	}
	// train.BuildSampleFull orders examples by map iteration, so the
	// train/test split, and with it the final loss, varies between runs
	// of one spec and seed. Until that is fixed the losses are printed
	// side by side rather than required to be equal.
	fmt.Printf("  train loss check (not enforced: example order is not deterministic): job %v, direct train.Train %v, equal %t\n",
		first.res.FinalLoss, loss, first.res.FinalLoss == loss)
	return nil
}

// warm makes one untimed pass of every request type, so each dataset
// sits in its owning replicas' caches before timing starts, and records
// the repeat request's first result.
func (b *bench) warm(ctx context.Context) error {
	for i := range b.pool {
		if _, err := b.inferOp(ctx, nil, 0, i); err != nil {
			return fmt.Errorf("warm infer: %w", err)
		}
	}
	// Two streams, one per dataset (the train job rides the first), so
	// both datasets are synthesized at once on their owners.
	errs := make(chan error, len(subsampleDatasets))
	for i, ds := range subsampleDatasets {
		go func() {
			for _, cell := range subsampleCells {
				req := api.SubsampleRequest{Dataset: ds, Scale: "small", Hypercubes: cell[0], Method: cell[1],
					NumHypercubes: 12, NumSamples: 410, Cube: 16, Seed: b.seed}
				if _, _, err := b.runJob(ctx, nil, api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &req}); err != nil {
					errs <- fmt.Errorf("warm subsample %s: %w", ds, err)
					return
				}
			}
			if i == 0 {
				spec := trainSpec(b.seed)
				if _, _, err := b.runJob(ctx, nil, api.SubmitJobRequest{Type: api.JobTrain, Train: &spec}); err != nil {
					errs <- fmt.Errorf("warm train: %w", err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range subsampleDatasets {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	res, _, err := b.runJob(ctx, nil, api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &b.repeatReq})
	if err != nil {
		return fmt.Errorf("warm repeat: %w", err)
	}
	b.repeatRes, err = json.Marshal(res)
	return err
}
