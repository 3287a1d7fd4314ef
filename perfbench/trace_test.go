package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping on [20,40]: together they cover [10,50].
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20, End: 50},
		// A child nested inside another child's interval adds nothing.
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 25, End: 30},
		// A child running past the root counts only up to the root's end.
		{ID: 5, Parent: 1, Req: 1, Name: "d", Start: 90, End: 120},
		// Grandchild: covers part of b only.
		{ID: 6, Parent: 3, Req: 1, Name: "e", Start: 30, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 30, 3: 30 - 15, 4: 5, 5: 30, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeDisjointAndUnsortedChildren(t *testing.T) {
	spans := []span{
		{ID: 7, Req: 1, Name: "root", Start: 0, End: 50},
		{ID: 9, Parent: 7, Req: 1, Name: "late", Start: 30, End: 40},
		{ID: 8, Parent: 7, Req: 1, Name: "early", Start: 0, End: 10},
	}
	if got := selfTimes(spans)[7]; got != 30 {
		t.Fatalf("self = %d, want 30", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	root := r.request("req")
	d, err := timed(root, "layer", func() error { return nil })
	root.end()
	if err != nil || d < 0 || r.snapshot() != nil {
		t.Fatalf("nil recorder recorded or failed: d=%v err=%v", d, err)
	}
}

func TestRecorderParentsChildrenWithinRequest(t *testing.T) {
	r := newRecorder()
	a := r.request("req")
	if _, err := timed(a, "layer", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	a.end()
	b := r.request("req")
	b.end()
	spans := r.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	child, root := spans[0], spans[1]
	if child.Parent != root.ID || child.Req != root.Req || spans[2].Req == root.Req {
		t.Fatalf("bad parentage: %+v", spans)
	}
	if child.Start < root.Start || child.End > root.End {
		t.Fatalf("child outside root: %+v", spans)
	}
}
