package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/sickle"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
)

// Probe sizes: calls per layer in a traced run's probe phase.
const (
	inferProbes   = 64
	jobProbes     = 12
	durableProbes = 64
	stepProbes    = 30
)

// matmulShapes are the train model's dense layers at batch 4 (m×k·k×n):
// the point encoder's two layers over 4·51 points and the decoder's seed
// projection.
var matmulShapes = [][3]int{{204, 4, 32}, {204, 32, 32}, {4, 32, 64}}

// layerMetrics is what the probe phase and the traced phase measured,
// keyed by per-layer metric name.
type layerMetrics map[string]float64

// probeInfer sends the same single-item request down each layer in turn,
// outside in: through the router, straight to the model's owner, into a
// standalone Batcher over the owner's registry, and a bare forward pass.
// A layer's cost is its paired difference from the layer below.
func (b *bench) probeInfer(ctx context.Context, m layerMetrics) error {
	owner := b.f.owner(modelName)
	direct := b.f.direct(modelName)
	entry, ok := owner.Server.Registry().Lookup(modelName)
	if !ok {
		return fmt.Errorf("model %q not registered on its owner", modelName)
	}
	bat := serve.NewBatcher(owner.Server.Registry(), serve.NewMetrics(), 0, 0, 0, 0)
	defer bat.Stop()

	var hop, http, wait, batched, fwd []call
	for i := 0; i < inferProbes; i++ {
		k := i % poolSize
		req := &api.InferRequest{Model: modelName, Items: b.pool[k : k+1]}
		item := tensor.FromSlice(slices.Clone(b.pool[k].Data), b.pool[k].Shape...)
		x := tensor.FromSlice(slices.Clone(b.pool[k].Data), append([]int{1}, b.pool[k].Shape...)...)
		root := b.rec.request("probe.infer")
		var viaRouter, viaOwner *api.InferResponse
		var viaBatcher *tensor.Tensor
		r, err := measured(root, "shard.infer", func() (err error) {
			viaRouter, err = b.f.c.Infer(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		d, err := measured(root, "serve.infer", func() (err error) {
			viaOwner, err = direct.Infer(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		bt, err := measured(root, "batcher.infer", func() (err error) {
			viaBatcher, _, _, err = bat.Infer(ctx, modelName, item)
			return err
		})
		if err != nil {
			return err
		}
		f, err := measured(root, "nn.forward", func() error {
			rep, err := entry.Acquire(ctx)
			if err != nil {
				return err
			}
			rep.Forward(x)
			entry.Release(rep)
			return nil
		})
		if err != nil {
			return err
		}
		root.end()
		for _, out := range []api.InferItem{viaRouter.Outputs[0], viaOwner.Outputs[0],
			{Shape: viaBatcher.Shape, Data: viaBatcher.Data}} {
			if !sameItem(out, b.refs[k]) {
				b.mismatch("probe infer input %d: output differs from the unbatched forward pass", k)
			}
		}
		hop = append(hop, diff(r, d))
		http = append(http, diff(d, bt))
		wait = append(wait, diff(bt, f))
		batched = append(batched, bt)
		fwd = append(fwd, f)
	}
	m["shard.hop_p50_us"] = medianOf(hop, durUS)
	m["shard.hop_allocs"] = medianOf(hop, allocsOf)
	m["shard.hop_bytes"] = medianOf(hop, bytesOf)
	m["serve.http_p50_us"] = medianOf(http, durUS)
	m["serve.http_allocs"] = medianOf(http, allocsOf)
	m["batcher.infer_p50_us"] = medianOf(batched, durUS)
	m["batcher.wait_p50_us"] = medianOf(wait, durUS)
	m["nn.forward_us"] = medianOf(fwd, durUS)
	m["nn.forward_allocs"] = medianOf(fwd, allocsOf)
	m["nn.forward_bytes"] = medianOf(fwd, bytesOf)
	m["batcher.batch_mean"] = owner.Server.Metrics().MeanBatchSize()
	m["batcher.rejected"] = float64(owner.Server.Metrics().RejectedTotal())
	return nil
}

func diff(a, b call) call {
	return call{d: a.d - b.d, allocs: a.allocs - b.allocs, bytes: a.bytes - b.bytes}
}

func durUS(c call) float64    { return us(c.d) }
func allocsOf(c call) float64 { return float64(c.allocs) }
func bytesOf(c call) float64  { return float64(c.bytes) }

func medianOf(cs []call, f func(call) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return median(xs)
}

// probeJobs runs a short single-client subsample job sequence (repeats
// included) from the probe's own request stream, so every workload's
// traced run exercises the job path.
func (b *bench) probeJobs(ctx context.Context) error {
	for i := 0; i < jobProbes; i++ {
		root := b.rec.request("probe.job")
		err := b.subsampleJob(ctx, root, i)
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeDurable times a replica's durability primitives in a scratch data
// directory: a submit-shaped WAL append (fsync'd) and a result-sized
// content-addressed blob put and get.
func (b *bench) probeDurable(dir string, m layerMetrics) error {
	st, _, err := durable.Open(filepath.Join(dir, "probe-durable"))
	if err != nil {
		return err
	}
	defer st.Close()
	payload, err := json.Marshal(api.SubmitJobRequest{Type: api.JobSubsample,
		IdempotencyKey: api.NewIdempotencyKey(), Subsample: &b.repeatReq})
	if err != nil {
		return err
	}
	root := b.rec.request("probe.durable")
	defer root.end()
	var appends, puts, gets []float64
	for i := 0; i < durableProbes; i++ {
		d, err := timed(root, "durable.wal_append", func() error {
			return st.WAL.Append(durable.Record{Kind: durable.KindSubmit, ID: fmt.Sprintf("job-%d", i),
				Type: string(api.JobSubsample), Key: fmt.Sprint(i), Payload: payload, Time: time.Now()})
		})
		if err != nil {
			return err
		}
		appends = append(appends, us(d))
	}
	for i := 0; i < durableProbes; i++ {
		key := durable.ContentKey(api.SubsampleRequest{Dataset: "probe", Seed: int64(i)})
		d, err := timed(root, "durable.cas_put", func() error { return st.Cache.Put(key, b.repeatRes) })
		if err != nil {
			return err
		}
		puts = append(puts, us(d))
		var got []byte
		d, err = timed(root, "durable.cas_get", func() (err error) {
			got, err = st.Cache.Get(key)
			return err
		})
		if err != nil {
			return err
		}
		if string(got) != string(b.repeatRes) {
			b.mismatch("content-addressed blob read back differs from what was put")
		}
		gets = append(gets, us(d))
	}
	m["durable.wal_append_p50_us"] = median(appends)
	m["durable.cas_put_us"] = median(puts)
	m["durable.cas_get_us"] = median(gets)
	return nil
}

// probeCompute times the compute layers directly: dataset synthesis,
// the sampling pipeline's six cells, k-means on one cube, a train run on
// a train job's examples, one optimiser step, and matmul at the train
// model's shapes.
func (b *bench) probeCompute(ctx context.Context, m layerMetrics) error {
	root := b.rec.request("probe.compute")
	defer root.end()
	datasets := map[string]*grid.Dataset{}
	for _, name := range append(slices.Clone(subsampleDatasets), "GESTS-2048") {
		d, err := timed(root, "sickle.dataset_build", func() (err error) {
			datasets[name], err = sickle.BuildDatasetUncached(name, sickle.Small)
			return err
		})
		if err != nil {
			return err
		}
		m["sickle.dataset_build_ms."+name] = ms(d)
	}

	for _, name := range subsampleDatasets {
		d := datasets[name]
		for _, cell := range subsampleCells {
			var times []float64
			for rep := 0; rep < 3; rep++ {
				req := api.SubsampleRequest{Hypercubes: cell[0], Method: cell[1], NumHypercubes: 12,
					NumSamples: 410, Cube: 16, Seed: b.seed + int64(rep)}
				t, err := timed(root, "sampling.snapshot", func() error {
					_, err := sampling.SubsampleSnapshot(ctx, d, 0, pipelineConfig(req, d.Snapshots[0]))
					return err
				})
				if err != nil {
					return err
				}
				times = append(times, ms(t))
			}
			m[fmt.Sprintf("sampling.snapshot_ms.%s-%s.%s", cell[0], cell[1], name)] = median(times)
		}
	}

	f := datasets[subsampleDatasets[0]]
	full := api.SubsampleRequest{Hypercubes: "random", Method: "full", NumHypercubes: 1, Cube: 16, Seed: b.seed}
	cubes, err := sampling.SubsampleSnapshot(ctx, f, 0, pipelineConfig(full, f.Snapshots[0]))
	if err != nil {
		return err
	}
	var km []float64
	for rep := 0; rep < 5; rep++ {
		t, err := timed(root, "cluster.kmeans", func() error {
			_, err := cluster.KMeans(cubes[0].Features, cluster.Config{K: 5, Seed: b.seed + int64(rep)})
			return err
		})
		if err != nil {
			return err
		}
		km = append(km, ms(t))
	}
	m["cluster.kmeans_ms"] = median(km)

	if err := b.probeTrain(ctx, root, m); err != nil {
		return err
	}
	probeMatmul(root, m)
	return nil
}

func (b *bench) probeTrain(ctx context.Context, root *active, m layerMetrics) error {
	spec := trainSpec(b.seed)
	ex, err := trainExamples(ctx, spec)
	if err != nil {
		return err
	}
	var runs []float64
	for rep := 0; rep < 2; rep++ {
		var loss float64
		t, err := timed(root, "train.run", func() (err error) {
			loss, err = trainOnce(ctx, spec, ex)
			return err
		})
		if err != nil {
			return err
		}
		runs = append(runs, ms(t))
		m["train.final_loss"] = loss
	}
	m["train.run_ms"] = median(runs)

	model, err := archSpec(spec.Spec).Build(rand.New(rand.NewSource(b.seed)))
	if err != nil {
		return err
	}
	opt := nn.NewAdam(1e-3)
	in, tgt := stackExamples(ex[:spec.Batch])
	var steps []call
	for i := 0; i < stepProbes; i++ {
		c, _ := measured(root, "train.step", func() error {
			nn.ZeroGrads(model)
			pred := model.Forward(in)
			g := tensor.Get(pred.Shape...)
			nn.MSELossInto(g, pred, tgt)
			model.Backward(g)
			tensor.Put(g)
			nn.ClipGradNorm(model, 5)
			opt.Step(model)
			return nil
		})
		steps = append(steps, c)
	}
	m["train.step_ms"] = medianOf(steps, func(c call) float64 { return ms(c.d) })
	m["train.step_allocs"] = medianOf(steps, allocsOf)
	return nil
}

// stackExamples stacks examples into one batch input and target.
func stackExamples(ex []train.Example) (in, tgt *tensor.Tensor) {
	stack := func(get func(train.Example) *tensor.Tensor) *tensor.Tensor {
		first := get(ex[0])
		out := tensor.New(append([]int{len(ex)}, first.Shape...)...)
		for i, e := range ex {
			copy(out.Data[i*first.Len():], get(e).Data)
		}
		return out
	}
	return stack(func(e train.Example) *tensor.Tensor { return e.Input }),
		stack(func(e train.Example) *tensor.Tensor { return e.Target })
}

// probeMatmul reports GFLOP/s at each of the train model's matmul shapes
// and the computed flops of one pass over them.
func probeMatmul(root *active, m layerMetrics) {
	rng := rand.New(rand.NewSource(1))
	total := 0.0
	for _, s := range matmulShapes {
		a := tensor.Randn(rng, 1, s[0], s[1])
		bm := tensor.Randn(rng, 1, s[1], s[2])
		dst := tensor.New(s[0], s[2])
		flops := 2 * float64(s[0]*s[1]*s[2])
		total += flops
		n := 0
		t, _ := timed(root, "tensor.matmul", func() error {
			for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; n++ {
				tensor.MatMulInto(dst, a, bm)
			}
			return nil
		})
		m[fmt.Sprintf("tensor.matmul_gflops.%dx%dx%d", s[0], s[1], s[2])] = flops * float64(n) / float64(t.Nanoseconds())
	}
	m["tensor.matmul_flops"] = total
}
