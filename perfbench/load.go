package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// workload is one closed-loop traffic mix: clients goroutines each send
// their next operation only after the previous one completes.
type workload struct {
	name    string
	clients int
	// ops names the operation in the report ("infer" or "job").
	ops string
	// op runs the client's i-th operation under root (nil when untraced)
	// and returns the latency it counts.
	op func(ctx context.Context, root *active, client, i int) (time.Duration, error)
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	lat               []float64 // ms, successful operations only
	attempted, failed int
	elapsed           time.Duration
	allocs, bytes     uint64        // whole process, over the phase
	heapPeak          uint64        // bytes
	gcs               uint32        // GC cycles during the phase
	cpu               time.Duration // process user+system CPU time over the phase
	errs              []string
}

// closedLoop drives w for dur and returns what it measured. Operations
// that fail (refused, 5xx, timed out) are counted, never retried.
func closedLoop(ctx context.Context, rec *recorder, w workload, dur time.Duration) loadResult {
	runtime.GC()
	stopHeap := sampleHeapPeak()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()

	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			var attempted, failed int
			var errs []string
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				root := rec.request(w.name)
				d, err := w.op(ctx, root, c, i)
				root.end()
				attempted++
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err.Error())
					}
					continue
				}
				lat = append(lat, ms(d))
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	res.heapPeak = stopHeap()
	res.allocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = m1.NumGC - m0.NumGC
	return res
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeapPeak polls the live-heap size every 10ms until the returned
// stop function is called; stop waits for the poller and returns the
// largest size seen.
func sampleHeapPeak() (stop func() uint64) {
	const name = "/memory/classes/heap/objects:bytes"
	sample := []metrics.Sample{{Name: name}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	peak := read()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		return max(peak, read())
	}
}

// e2e turns a phase's measurements into the gated end-to-end metrics;
// report prints the rest.
func e2e(r loadResult, setup float64) map[string]float64 {
	ops := float64(r.attempted)
	return map[string]float64{
		"setup_s":       setup,
		"allocs_per_op": float64(r.allocs) / ops,
		"bytes_per_op":  float64(r.bytes) / ops,
		"heap_peak_mb":  float64(r.heapPeak) / (1 << 20),
	}
}

// report prints a phase's counts and its end-to-end metrics under the
// names the workload's operations use (infer_p50_ms, job_p90_ms, ...).
func report(w workload, r loadResult, m map[string]float64) {
	ok := len(r.lat)
	fmt.Printf("workload %s: %d clients, %.2fs, attempted %d, succeeded %d, failed %d, error_ratio %g\n",
		w.name, w.clients, r.elapsed.Seconds(), r.attempted, ok, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
	for _, e := range r.errs {
		fmt.Printf("  failure: %s\n", e)
	}
	rate := "jobs_per_s"
	if w.ops == "infer" {
		rate = "infer_rps"
	}
	// Latency, rate and CPU time are printed, not gated: see
	// not_gated_because in ledger.json.
	fmt.Printf("  %s_p50_ms %.4f ms (n=%d); cpu_ms_per_op %.4f ms\n", w.ops, median(r.lat), ok,
		ms(r.cpu)/float64(max(r.attempted, 1)))
	fmt.Printf("  %s_p90_ms %.4f ms; %s %.4f 1/s\n", w.ops, percentile(r.lat, 90),
		rate, float64(ok)/r.elapsed.Seconds())
	if p := tailPercentile(ok, 10); p > 90 {
		fmt.Printf("  %s_p%g_ms %.4f ms (the highest percentile with 10 of the %d samples beyond it)\n",
			w.ops, p, percentile(r.lat, p), ok)
	}
	fmt.Printf("  max %.3f ms; %d GC cycles\n", percentile(r.lat, 100), r.gcs)
	fmt.Printf("  allocs_per_op %.1f count, bytes_per_op %.0f B, heap_peak_mb %.2f MB\n",
		m["allocs_per_op"], m["bytes_per_op"], m["heap_peak_mb"])
}
