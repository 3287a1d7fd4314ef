package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes; the program itself is not instrumented. Times are
// offsets from the recorder's origin. Allocs and Bytes are set only by
// single-client probes, where process-wide counters attribute cleanly.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a request's root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span of a traced run in memory until it is written
// out at the end. A nil recorder records nothing, so untraced runs share
// the traced code path at the cost of a nil check.
type recorder struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// active is an open span; nil when tracing is off.
type active struct {
	r *recorder
	s span
}

// request opens the root span of a new request.
func (r *recorder) request(name string) *active {
	if r == nil {
		return nil
	}
	return r.open(name, 0, r.reqs.Add(1))
}

func (r *recorder) open(name string, parent, req int64) *active {
	return &active{r: r, s: span{
		ID: r.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.origin)),
	}}
}

// child opens a span under a, in a's request.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.r.open(name, a.s.ID, a.s.Req)
}

func (a *active) end() { a.endAllocs(0, 0) }

func (a *active) endAllocs(allocs, bytes int64) {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.origin))
	a.s.Allocs, a.s.Bytes = allocs, bytes
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// timed runs fn inside a child span of parent named name and returns its
// wall time, measured whether or not tracing is on.
func timed(parent *active, name string, fn func() error) (time.Duration, error) {
	sp := parent.child(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// call is one probed layer call: its wall time and the heap objects and
// bytes the whole process allocated while it ran.
type call struct {
	d             time.Duration
	allocs, bytes int64
}

// measured is timed plus allocation counts. It reads runtime.MemStats
// around the call (outside the timed interval), so use it only where one
// goroutine drives the process.
func measured(parent *active, name string, fn func() error) (call, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := parent.child(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := call{d: d, allocs: int64(m1.Mallocs - m0.Mallocs), bytes: int64(m1.TotalAlloc - m0.TotalAlloc)}
	sp.endAllocs(c.allocs, c.bytes)
	return c, err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the wall times of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval covered by its children. Overlapping children
// cover a stretch once, and a child running past its parent counts only
// inside the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeBreakdown prints, per span name, the span count and the median
// duration and self time.
func writeBreakdown(w io.Writer, spans []span) {
	self := selfTimes(spans)
	byName := map[string][2][]float64{}
	for _, s := range spans {
		v := byName[s.Name]
		v[0] = append(v[0], float64(s.dur()))
		v[1] = append(v[1], float64(self[s.ID]))
		byName[s.Name] = v
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span", "count", "p50 total", "p50 self")
	for _, n := range names {
		v := byName[n]
		fmt.Fprintf(w, "  %-24s %8d %10.1fus %10.1fus\n", n, len(v[0]),
			median(v[0])/1e3, median(v[1])/1e3)
	}
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
