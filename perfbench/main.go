// Command perfbench is the repository's benchmark. Each run boots one
// fleet inside the process (three durable serve replicas behind a shard
// router with owner-set replication K=2), warms it, drives it with one
// closed-loop workload through pkg/client, checks every output, and
// prints the end-to-end metrics; with -trace 1 it instead prints the
// per-layer metrics, timed from outside around calls into each module.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload infer-lone --seed 1 --seconds 10 --trace 0
//
// --workload all runs each workload in turn.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// ledger.json names the workloads, the metrics, and which end-to-end
// metric each layer metric should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/sickle"
)

//go:embed ledger.json
var ledgerJSON []byte

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Clients int    `json:"clients"`
}

type ledger struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadLedger() (*ledger, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("ledger.json: %w", err)
	}
	return &l, nil
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	dir       string // scratch space for replica data dirs
	traceOut  string // where a traced run writes its spans ("" for nowhere)
	setupReps int    // fleets set up to time setup_s (traced runs set up one)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", `workload to run (see ledger.json), or "all" for each in turn`)
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	o.traced = *trace == 1
	o.setupReps = 3
	o.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	// Temporary files the program makes (the demo checkpoint) stay in the
	// run's scratch directory.
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Setenv("TMPDIR", o.dir)
	code := runMain(o)
	if err := os.RemoveAll(o.dir); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		code = 2
	}
	os.Exit(code)
}

// runMain runs one workload, or each in turn for "all", printing one
// JSON result line per workload. It returns the exit code: 2 when a run
// could not complete, 1 when an output failed its check.
func runMain(o options) int {
	names := []string{o.workload}
	if o.workload == "all" {
		l, err := loadLedger()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		names = names[:0]
		for _, w := range l.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	dir := o.dir
	for _, name := range names {
		o.workload, o.dir = name, filepath.Join(dir, name)
		if o.traced {
			o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))
		}
		res, err := runBench(context.Background(), o)
		if err == nil {
			var out []byte
			if out, err = json.Marshal(res); err == nil {
				fmt.Println(string(out))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func runBench(ctx context.Context, o options) (*result, error) {
	l, err := loadLedger()
	if err != nil {
		return nil, err
	}
	var def *workloadDef
	for i := range l.Workloads {
		if l.Workloads[i].Name == o.workload {
			def = &l.Workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// Direct pipeline runs inside traced jobs read the datasets from
		// the process-wide registry; build them before any timing.
		for _, name := range append(slices.Clone(subsampleDatasets), "GESTS-2048") {
			if _, err := sickle.BuildDataset(name, sickle.Small); err != nil {
				return nil, err
			}
		}
	}

	reps := o.setupReps
	if o.traced || reps < 1 {
		reps = 1
	}
	var (
		f      *fleet
		b      *bench
		setups []float64
	)
	for r := 0; r < reps; r++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("close fleet: %w", err)
			}
		}
		t0 := time.Now()
		if f, err = bootFleet(ctx, filepath.Join(o.dir, fmt.Sprintf("setup%d", r))); err != nil {
			return nil, err
		}
		if b, err = newBench(f, o.seed); err == nil {
			err = b.warm(ctx)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("set up fleet: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	w := b.workload(*def)

	res := &result{Metrics: map[string]metricValue{}}
	var want []metricDef
	var values map[string]float64
	if !o.traced {
		lr := closedLoop(ctx, nil, w, dur)
		if err := b.verify(ctx); err != nil {
			return nil, err
		}
		values = e2e(lr, median(setups))
		report(w, lr, values)
		fmt.Printf("  setup_s %.4f s (median of %d set-ups: %.3v)\n", values["setup_s"], len(setups), setups)
		if w.ops == "infer" {
			fmt.Printf("  mean batch size on the model's owner since boot: %.3f\n", f.owner(modelName).Server.Metrics().MeanBatchSize())
		}
		if n := min(len(b.trainRes), lossSeeds); n > 0 {
			losses := make([]float64, n)
			for i, t := range b.trainRes[:n] {
				losses[i] = t.res.FinalLoss
			}
			fmt.Printf("  train_loss %.6f (mean final loss of the first %d train jobs)\n", mean(losses), n)
		}
		res.Attempted, res.Failed = lr.attempted, lr.failed
		want = l.EndToEnd
	} else {
		if values, err = b.tracedRun(ctx, w, dur, o.dir, res); err != nil {
			return nil, err
		}
		want = l.PerLayer
		spans := b.rec.snapshot()
		fmt.Printf("traced %s: %d spans; per-layer breakdown (self time excludes child spans):\n", w.name, len(spans))
		writeBreakdown(os.Stdout, spans)
		if o.traceOut != "" {
			if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(o.traceOut, spans); err != nil {
				return nil, err
			}
			fmt.Printf("spans written to %s\n", o.traceOut)
		}
	}
	for _, d := range want {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (got %v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is missing from ledger.json", name)
		}
	}
	b.mu.Lock()
	res.Correct = len(b.mismatches) == 0
	for _, m := range b.mismatches {
		fmt.Println("MISMATCH:", m)
	}
	b.mu.Unlock()
	return res, nil
}

// workload binds a ledger workload to this bench's operations.
func (b *bench) workload(def workloadDef) workload {
	w := workload{name: def.Name, clients: def.Clients, ops: "job", op: b.trainOp}
	if def.Name == "infer-lone" {
		w.ops, w.op = "infer", b.inferOp
	}
	return w
}

// tracedRun measures the workload untraced for half the time, then traced
// for the other half, then runs the layer probes; it returns the
// per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, w workload, dur time.Duration, dir string, res *result) (layerMetrics, error) {
	base := closedLoop(ctx, nil, w, dur/2)
	entries0, accepted0, polls0 := b.f.jobEntries(), b.accepted.Load(), b.polls.Load()
	hits0, misses0 := b.f.lruStats()

	b.rec = newRecorder()
	traced := closedLoop(ctx, b.rec, w, dur/2)
	fmt.Printf("untraced phase: ")
	report(w, base, e2e(base, 0))
	fmt.Printf("traced phase: ")
	report(w, traced, e2e(traced, 0))
	res.Attempted = base.attempted + traced.attempted
	res.Failed = base.failed + traced.failed

	m := layerMetrics{}
	m["obs.trace_overhead_pct"] = (median(traced.lat)/median(base.lat) - 1) * 100
	if err := b.probeInfer(ctx, m); err != nil {
		return nil, fmt.Errorf("infer probe: %w", err)
	}
	if err := b.probeJobs(ctx); err != nil {
		return nil, fmt.Errorf("job probe: %w", err)
	}
	accepted := float64(b.accepted.Load() - accepted0)
	m["shard.copies_per_job"] = float64(b.f.jobEntries()-entries0) / accepted
	m["jobs.polls_per_job"] = float64(b.polls.Load()-polls0) / accepted
	hits1, misses1 := b.f.lruStats()
	m["lru.hit_ratio"] = float64(hits1-hits0) / float64(hits1-hits0+misses1-misses0)
	if err := b.probeDurable(dir, m); err != nil {
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	if err := b.probeCompute(ctx, m); err != nil {
		return nil, fmt.Errorf("compute probe: %w", err)
	}
	if err := b.verify(ctx); err != nil {
		return nil, err
	}

	spans := b.rec.snapshot()
	m["shard.submit_p50_ms"] = median(durations(spans, "shard.submit")) / 1e6
	m["jobs.result_p50_ms"] = median(durations(spans, "jobs.result")) / 1e6
	m["jobs.overhead_p50_ms"] = median(b.overheadMS)
	m["durable.cas_hit_ratio"] = float64(b.repeatsSame) / float64(b.repeatsSent)
	return m, nil
}
