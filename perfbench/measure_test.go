package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"bruckv/internal/mpi"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},
		{99, 90, false},
		{1000, 99, true},
		{999, 99, false},
		{100, 99, false},
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{50, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := highestTail(c.n, 90, 99, 99.9)
		if p != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = p%g %v, want p%g %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestFailedOpsCountAsInfinity(t *testing.T) {
	// 100 ops taking 1..100 ms, of which the k fastest failed: failures
	// must sort above every success.
	ops := func(failed int) []opRecord {
		var out []opRecord
		for i := 1; i <= 100; i++ {
			op := opRecord{index: i, ms: float64(i)}
			if i <= failed {
				op.fail = failDeadlock
			}
			out = append(out, op)
		}
		return out
	}
	lat := latencies(ops(5))
	if got := percentile(lat, 90); got != 95 {
		t.Errorf("p90 with 5 failures = %v, want 95 (the 90th value once failures sort last)", got)
	}
	if got := percentile(lat, 50); got != 55 {
		t.Errorf("p50 with 5 failures = %v, want 55", got)
	}
	if got := percentile(latencies(ops(10)), 90); got != 100 {
		t.Errorf("p90 with 10 failures = %v, want 100", got)
	}
	if got := percentile(latencies(ops(11)), 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11 failures = %v, want +Inf", got)
	}
}

func TestClassify(t *testing.T) {
	de := &mpi.DeadlockError{Reason: "test"}
	cases := []struct {
		err  error
		want failKind
	}{
		{nil, okOp},
		{fmt.Errorf("run: %w", de), failDeadlock},
		{errors.Join(de, context.DeadlineExceeded), failDeadline},
		{fmt.Errorf("wrapped: %w", &mpi.RankFailedError{Reason: "test"}), failRankFailed},
		{fmt.Errorf("%w: bad paths", errWrong), failWrong},
		{errors.New("boom"), failOther},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, failNames[got], failNames[c.want])
		}
	}
}
