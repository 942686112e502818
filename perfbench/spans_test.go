package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "run", ID: 0, Parent: noSpan, Start: 0, End: 100},
		// Overlapping children covering [10, 50) count 40 ns, not 50.
		{Name: "body", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "body", ID: 2, Parent: 0, Start: 20, End: 50},
		{Name: "body", ID: 3, Parent: 0, Start: 60, End: 70},
		// A child overhanging the parent counts only inside it.
		{Name: "body", ID: 4, Parent: 0, Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{Name: "app", ID: 5, Parent: 1, Start: 12, End: 28},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 40 - 10 - 10, 1: 20 - 16, 2: 30, 3: 10, 4: 30, 5: 16}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if len(sum) != 3 || sum[1].Name != "body" || sum[1].Count != 4 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestTracerRecordsParentsAndNilIsNoop(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, noSpan); id != noSpan {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	off.end(noSpan)
	if off.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.begin("op", 7, noSpan)
	child := tr.begin("mpi.run", 7, root)
	open := tr.begin("never-closed", 7, root)
	tr.end(child)
	tr.end(root)
	at := time.Now()
	tr.add("mpi.rank_body", 7, child, at, at.Add(time.Millisecond))
	// An interval from before the tracer started is still a span.
	tr.add("coll.init", -1, noSpan, tr.t0.Add(-2*time.Millisecond), tr.t0.Add(-time.Millisecond))
	got := tr.snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d spans, want the 4 closed ones", len(got))
	}
	for _, s := range got {
		if s.ID == open {
			t.Fatal("an open span was snapshotted")
		}
		if (s.Op != 7 && s.Name != "coll.init") || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if got[1].Parent != root || got[2].Parent != child || got[2].dur() != int64(time.Millisecond) {
		t.Errorf("parents or durations wrong: %+v", got)
	}
}
