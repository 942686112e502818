package main

import (
	"context"
	"errors"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"bruckv/internal/mpi"
	"bruckv/internal/service"
)

// failKind classifies an op that did not complete correctly. Every kind
// counts as a failed op; only failWrong makes a run incorrect.
type failKind int

const (
	okOp failKind = iota
	failDeadlock
	failRankFailed
	failDeadline
	failQuota
	failAdmission
	failWrong
	failOther
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "deadlock", "rank_failed", "deadline", "quota", "admission", "wrong", "other"}

// errWrong marks an op whose output disagreed with its oracle.
var errWrong = errors.New("output disagrees with oracle")

// classify maps an op's error to its failure kind. A context deadline
// is checked first: RunContext reports it as a DeadlockError joined
// with the context's error.
func classify(err error) failKind {
	var de *mpi.DeadlockError
	var rfe *mpi.RankFailedError
	switch {
	case err == nil:
		return okOp
	case errors.Is(err, errWrong):
		return failWrong
	case errors.Is(err, context.DeadlineExceeded):
		return failDeadline
	case errors.As(err, &rfe):
		return failRankFailed
	case errors.As(err, &de):
		return failDeadlock
	case errors.Is(err, service.ErrQuotaExceeded):
		return failQuota
	case errors.Is(err, service.ErrAdmissionRejected):
		return failAdmission
	}
	return failOther
}

// opRecord is one op's outcome. ms is its latency (for the open loop,
// from the time it was due); a failed op's latency counts as +Inf.
type opRecord struct {
	index int
	ms    float64
	fail  failKind
}

// recorder collects op outcomes; the loops add them from the goroutine
// that runs the measurement.
type recorder struct{ ops []opRecord }

func (r *recorder) add(op opRecord) { r.ops = append(r.ops, op) }

func (r *recorder) records() []opRecord { return r.ops }

// latencies returns every op's latency in ms, sorted, with failed ops
// as +Inf so that a failure counts as missing any latency limit.
func latencies(ops []opRecord) []float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = op.ms
		if op.fail != okOp {
			xs[i] = math.Inf(1)
		}
	}
	sort.Float64s(xs)
	return xs
}

// rankOf is the nearest-rank index of the p-th percentile in n sorted
// samples. The epsilon keeps p99.9 of 10000 at rank 9990, not 9991.
func rankOf(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// supported reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the least that makes a tail reproducible.
func supported(n int, p float64) bool {
	return n > 0 && n-(rankOf(n, p)+1) >= 10
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)]
}

// highestTail returns the highest of the given percentiles that has at
// least ten samples beyond it, and false if none has.
func highestTail(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if supported(n, p) && p > best {
			best, ok = p, true
		}
	}
	return best, ok
}

// heapPeak samples the Go heap in use until stopped and keeps the
// largest value seen. runtime/metrics reads do not stop the world.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
