package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs each workload for a moment, untraced and
// traced, and checks that the gates pass and every metric the ledger
// names is printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet per run")
	}
	l, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range l.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			want := l.EndToEnd
			if traced {
				name += "/traced"
				want = l.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				t.Setenv("TMPDIR", dir)
				o := options{workload: w.Name, seed: 7, seconds: 0.6, traced: traced, dir: dir, setupReps: 1}
				if traced {
					o.traceOut = filepath.Join(dir, "spans.jsonl")
				}
				res, err := runBench(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatal("correctness gates failed")
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.Name, got, d.Unit)
					}
				}
				if traced {
					if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
						t.Fatalf("no spans written: %v", err)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runBench(context.Background(), options{workload: "nope", seconds: 1, dir: t.TempDir()}); err == nil {
		t.Fatal("want an error for an unknown workload")
	}
}
