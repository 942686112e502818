package mpi

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bruckv/internal/buffer"
)

// blockedPair is a (rank, src, tag) expectation against the report.
type blockedPair struct {
	rank, src, tag int
}

// assertReport checks that the run error carries a DeadlockError whose
// blocked set is exactly wantRanks and contains every expected pending
// (src, tag) pair.
func assertReport(t *testing.T, err error, wantRanks []int, wantPairs []blockedPair) *DeadlockError {
	t.Helper()
	if err == nil {
		t.Fatal("expected an abort error, got nil")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error does not carry a *DeadlockError: %v", err)
	}
	got := de.BlockedRanks()
	if len(got) != len(wantRanks) {
		t.Fatalf("blocked ranks = %v, want %v\nreport:\n%s", got, wantRanks, de)
	}
	for i := range got {
		if got[i] != wantRanks[i] {
			t.Fatalf("blocked ranks = %v, want %v\nreport:\n%s", got, wantRanks, de)
		}
	}
	for _, wp := range wantPairs {
		found := false
		for _, br := range de.Blocked {
			if br.Rank != wp.rank {
				continue
			}
			for _, p := range br.Pending {
				if p.Src == wp.src && p.Tag == wp.tag {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("report missing rank %d pending (src=%d, tag=%d)\nreport:\n%s",
				wp.rank, wp.src, wp.tag, de)
		}
	}
	return de
}

// TestDeadlockReport runs a table of intentionally-deadlocking programs
// and asserts the per-rank report names the right ranks and (src, tag)
// pairs.
func TestDeadlockReport(t *testing.T) {
	cases := []struct {
		name      string
		size      int
		fn        func(p *Proc) error
		wantRanks []int
		wantPairs []blockedPair
	}{
		{
			// Rank 0 sends on tag 1; rank 1 listens on tag 2. Rank 0
			// finishes, rank 1 blocks forever.
			name: "mismatched tag",
			size: 2,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Send(1, 1, b)
					return nil
				}
				p.Recv(0, 2, b)
				return nil
			},
			wantRanks: []int{1},
			wantPairs: []blockedPair{{rank: 1, src: 0, tag: 2}},
		},
		{
			// Receive from self with no prior self-send: nothing can
			// ever match it.
			name: "recv from self without send",
			size: 3,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Recv(0, 9, b)
				}
				return nil
			},
			wantRanks: []int{0},
			wantPairs: []blockedPair{{rank: 0, src: 0, tag: 9}},
		},
		{
			// Circular blocking receives: every rank waits for its
			// successor before sending anything.
			name: "circular recv",
			size: 3,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				next := (p.Rank() + 1) % 3
				p.Recv(next, 5, b)
				p.Send(next, 5, b)
				return nil
			},
			wantRanks: []int{0, 1, 2},
			wantPairs: []blockedPair{
				{rank: 0, src: 1, tag: 5},
				{rank: 1, src: 2, tag: 5},
				{rank: 2, src: 0, tag: 5},
			},
		},
		{
			// Waitall with a receive nobody will satisfy: the report
			// names the outstanding (src, tag) pairs of the Waitall.
			name: "waitall outstanding",
			size: 2,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Send(1, 3, b)
					return nil
				}
				reqs := []*Request{
					p.Irecv(0, 3, b),
					p.Irecv(0, 4, buffer.New(4)),
				}
				return p.Waitall(reqs)
			},
			wantRanks: []int{1},
			wantPairs: []blockedPair{{rank: 1, src: 0, tag: 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := zeroWorld(t, tc.size)
			err := w.Run(tc.fn)
			de := assertReport(t, err, tc.wantRanks, tc.wantPairs)
			if !strings.Contains(de.Reason, "deadlock") {
				t.Errorf("reason %q does not mention deadlock", de.Reason)
			}
			// The rendered report must name every blocked rank's op.
			for _, br := range de.Blocked {
				if br.Op != "Recv" && br.Op != "Waitall" {
					t.Errorf("rank %d: unexpected blocked op %q", br.Rank, br.Op)
				}
			}
		})
	}
}

// TestDeadlockReportStable asserts the report is deterministic: the
// same deadlocking program yields the same blocked set and pairs on
// every run.
func TestDeadlockReportStable(t *testing.T) {
	run := func() string {
		w := zeroWorld(t, 4)
		err := w.Run(func(p *Proc) error {
			b := buffer.New(4)
			p.Recv((p.Rank()+1)%4, 8, b)
			return nil
		})
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("no DeadlockError in %v", err)
		}
		return de.Error()
	}
	a := run()
	for i := 0; i < 3; i++ {
		if b := run(); a != b {
			t.Fatalf("deadlock report not stable:\n%s\nvs\n%s", a, b)
		}
	}
}

// TestDeadlineAbortsLivelock exercises the wall-clock watchdog on a
// hang the blocked-rank detector cannot see: two ranks ping-ponging
// messages forever are never simultaneously blocked.
func TestDeadlineAbortsLivelock(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = w.Run(func(p *Proc) error {
		b := buffer.New(4)
		for {
			p.Send(1-p.Rank(), 1, b)
			p.Recv(1-p.Rank(), 1, b)
		}
	})
	if err == nil {
		t.Fatal("livelock terminated without error")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	if !strings.Contains(de.Reason, "deadline") {
		t.Errorf("reason %q does not mention the deadline", de.Reason)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("watchdog took %v to fire", elapsed)
	}
}

// TestDeadlineAbortsDeadlockWithReport is the acceptance scenario: a
// deliberately deadlocked run under WithDeadline terminates with a
// report naming every blocked rank and its pending (src, tag),
// whichever mechanism fires first.
func TestDeadlineAbortsDeadlockWithReport(t *testing.T) {
	w, err := NewWorld(4, WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		b := buffer.New(4)
		p.Recv((p.Rank()+1)%4, 42, b)
		return nil
	})
	assertReport(t, err, []int{0, 1, 2, 3}, []blockedPair{
		{rank: 0, src: 1, tag: 42},
		{rank: 1, src: 2, tag: 42},
		{rank: 2, src: 3, tag: 42},
		{rank: 3, src: 0, tag: 42},
	})
}

// TestDeadlineHarmlessOnHealthyRun arms the watchdog on a run that
// finishes well within the bound and on a repeat Run of the same world,
// making sure a stale timer never aborts a later run.
func TestDeadlineHarmlessOnHealthyRun(t *testing.T) {
	w, err := NewWorld(4, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Run(ringExchange); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestNegativeTagInReport checks that the reserved collective tag space
// (tags below -1000) survives the boxKey round trip into the report.
func TestNegativeTagInReport(t *testing.T) {
	w := zeroWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Barrier() // rank 1 never enters: blocks on a reserved tag
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	found := false
	for _, br := range de.Blocked {
		for _, pr := range br.Pending {
			if pr.Tag < -1000 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("report lost the negative collective tag:\n%s", de)
	}
}

// TestSendInProbeGapIsNotDeadlock forces the lost wake-up behind the
// false "deadlock detected": rank 1 is blocked, and rank 0 blocks too,
// completing the all-blocked condition, then a send for rank 0 lands
// after rank 0 released its mailbox lock but before its deadlock probe
// took its activity baseline. No rank is waiting on the condition
// variable the send broadcasts to, so only a baseline taken under the
// lock sees the send; the run must complete. Both blocking paths are
// covered: a blocking Recv and a Waitall on a posted Irecv.
func TestSendInProbeGapIsNotDeadlock(t *testing.T) {
	for _, op := range []string{"Recv", "Waitall"} {
		t.Run(op, func(t *testing.T) {
			w := zeroWorld(t, 2)
			defer w.Close()
			var fired atomic.Bool
			w.probeGapHook = func(p *Proc) {
				if p.rank == 0 && fired.CompareAndSwap(false, true) {
					// Rank 1's send, delivered while rank 1 is still
					// counted blocked in its own Recv.
					w.procs[1].Send(0, 2, buffer.New(4))
				}
			}
			err := w.Run(func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 1 {
					p.Recv(0, 1, b)
					return nil
				}
				for w.blocked.Load() != 1 {
					runtime.Gosched() // block only after rank 1 has
				}
				if op == "Recv" {
					p.Recv(1, 2, b)
				} else if err := p.Waitall([]*Request{p.Irecv(1, 2, b)}); err != nil {
					return err
				}
				p.Send(1, 1, b)
				return nil
			})
			if err != nil {
				t.Fatalf("live program aborted: %v", err)
			}
			if !fired.Load() {
				t.Fatal("rank 0 never reached the deadlock probe; the interleaving was not forced")
			}
		})
	}
}
