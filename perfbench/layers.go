package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"bruckv"
	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
	"bruckv/internal/service"
)

// layers accumulates the counters each layer exposes, read at the
// benchmark's own call sites during the traced run. A nil *layers
// records nothing.
type layers struct {
	mu sync.Mutex

	// mpi: exact counts from World stats or job responses. runWallNs is
	// the host time those messages cost: op wall for the closed loops,
	// job run wall for the service.
	msgs, bytes int64
	runWallNs   int64

	// buffer
	pool, scratch buffer.PoolStats

	// coll: rank-0 host spans of public calls, and the virtual time of
	// each collective call.
	callUs        map[string][]float64
	initUs        float64
	calls         int
	callVirtualNs float64

	// app: rank 0's host time in the fixpoint calls, and their
	// virtual-time results.
	iterations      int
	appMs           float64
	commNs, totalNs float64

	// service
	queueMs, runMs, admitMs []float64
	late                    time.Duration
}

func newLayers() *layers { return &layers{callUs: map[string][]float64{}} }

func (l *layers) addRun(rs mpi.RunStats, msgs, bytes int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs += msgs
	l.bytes += bytes
	l.pool = l.pool.Add(rs.Pool)
	l.scratch = l.scratch.Add(rs.Scratch)
}

func (l *layers) addPublicRun(st bruckv.Stats) {
	l.addRun(mpi.RunStats{Pool: st.Pool, Scratch: st.Scratch}, st.TotalMessages, st.TotalBytes)
}

func (l *layers) addApp(iterations int, commNs, totalNs, hostMs float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.iterations += iterations
	l.appMs += hostMs
	l.commNs += commNs
	l.totalNs += totalNs
	l.calls += iterations
	l.callVirtualNs += commNs
}

func (l *layers) addCallUs(name string, us float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.callUs[name] = append(l.callUs[name], us)
}

func (l *layers) setInitUs(us float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.initUs = us
}

func (l *layers) addCalls(n int, virtualNs float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls += n
	l.callVirtualNs += virtualNs
}

func (l *layers) addJob(resp service.JobResponse, handlerNs int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs += resp.Messages
	l.bytes += resp.Bytes
	l.runWallNs += resp.RunWallNs
	l.calls++
	l.callVirtualNs += resp.VirtualNs
	q, r := float64(resp.QueueWallNs)/1e6, float64(resp.RunWallNs)/1e6
	l.queueMs = append(l.queueMs, q)
	l.runMs = append(l.runMs, r)
	l.admitMs = append(l.admitMs, float64(handlerNs)/1e6-q-r)
}

func (l *layers) setGeneratorLate(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.late = d
}

// perLayerNames lists every per-layer metric with its unit, in print
// order; BENCHMARK.json declares the same set.
var perLayerNames = []struct{ name, unit string }{
	{"mpi.msgs_per_op", "count"},
	{"mpi.bytes_per_op", "B"},
	{"mpi.host_ns_per_msg", "ns"},
	{"mpi.deadlock_aborts", "count"},
	{"mpi.rank_failed", "count"},
	{"mpi.deadline_aborts", "count"},
	{"mpi.run_self_ms", "ms"},
	{"coll.alltoallv_us_p50", "us"},
	{"coll.start_us_p50", "us"},
	{"coll.init_us", "us"},
	{"coll.virtual_ns_per_call", "ns"},
	{"buffer.pool_hit_rate", "ratio"},
	{"buffer.scratch_hit_rate", "ratio"},
	{"buffer.pool_alloc_kb", "KB"},
	{"buffer.pool_outstanding", "count"},
	{"go.mallocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"app.tc_ms_p50", "ms"},
	{"app.kcfa_ms_p50", "ms"},
	{"app.ms_per_iteration", "ms"},
	{"app.iterations_per_op", "count"},
	{"app.virtual_comm_share", "ratio"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_p99", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p99", "ms"},
	{"service.admit_ms_p50", "ms"},
	{"service.admit_ms_p99", "ms"},
	{"service.rejected_quota", "count"},
	{"service.rejected_admission", "count"},
	{"service.wrong_digests", "count"},
	{"service.generator_late_ms_max", "ms"},
	{"cpu.app", "ratio"},
	{"cpu.coll", "ratio"},
	{"cpu.mpi", "ratio"},
	{"cpu.buffer", "ratio"},
	{"cpu.service", "ratio"},
	{"cpu.bench", "ratio"},
	{"cpu.gc", "ratio"},
	{"cpu.runtime", "ratio"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// tracedRun is everything the traced run measured.
type tracedRun struct {
	workload         string
	untraced, traced []opRecord
	lay              *layers
	spans            []span
	cpu              map[string]int64 // sampled CPU time per layer
	mem              memDelta
}

// memDelta is the Go runtime's allocator and GC work over the traced
// slices.
type memDelta struct{ mallocs, allocBytes, numGC, pauseNs uint64 }

func (d *memDelta) add(m0, m1 *runtime.MemStats) {
	d.mallocs += m1.Mallocs - m0.Mallocs
	d.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	d.numGC += uint64(m1.NumGC - m0.NumGC)
	d.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// perLayer derives the per-layer metrics. A metric whose layer the
// workload does not exercise reads 0.
func perLayer(t tracedRun) map[string]float64 {
	l := t.lay
	v := map[string]float64{}
	var ok int
	var opWallNs float64
	fails := [numFailKinds]int{}
	for _, op := range t.traced {
		fails[op.fail]++
		if op.fail == okOp {
			ok++
			opWallNs += op.ms * 1e6
		}
	}
	per := func(x float64) float64 {
		if ok == 0 {
			return 0
		}
		return x / float64(ok)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return percentile(s, q)
	}

	v["mpi.msgs_per_op"] = per(float64(l.msgs))
	v["mpi.bytes_per_op"] = per(float64(l.bytes))
	hostNs := opWallNs
	if l.runWallNs > 0 {
		hostNs = float64(l.runWallNs)
	}
	v["mpi.host_ns_per_msg"] = ratio(hostNs, float64(l.msgs))
	v["mpi.deadlock_aborts"] = float64(fails[failDeadlock])
	v["mpi.rank_failed"] = float64(fails[failRankFailed])
	v["mpi.deadline_aborts"] = float64(fails[failDeadline])
	self := selfTimes(t.spans)
	var runSelf []float64
	for _, s := range t.spans {
		if s.Name == "mpi.run" {
			runSelf = append(runSelf, float64(self[s.ID])/1e6)
		}
	}
	v["mpi.run_self_ms"] = p(runSelf, 50)

	v["coll.alltoallv_us_p50"] = p(l.callUs["coll.alltoallv"], 50)
	v["coll.start_us_p50"] = p(l.callUs["coll.start"], 50)
	v["coll.init_us"] = l.initUs
	v["coll.virtual_ns_per_call"] = ratio(l.callVirtualNs, float64(l.calls))

	v["buffer.pool_hit_rate"] = l.pool.HitRate()
	v["buffer.scratch_hit_rate"] = l.scratch.HitRate()
	v["buffer.pool_alloc_kb"] = float64(l.pool.BytesAlloc) / 1024
	v["buffer.pool_outstanding"] = float64(l.pool.Outstanding())

	v["go.mallocs_per_op"] = per(float64(t.mem.mallocs))
	v["go.alloc_kb_per_op"] = per(float64(t.mem.allocBytes) / 1024)
	v["go.gc_per_op"] = per(float64(t.mem.numGC))
	v["go.gc_pause_ms"] = float64(t.mem.pauseNs) / 1e6

	v["app.tc_ms_p50"] = p(spanDurations(t.spans, "app.tc"), 50)
	v["app.kcfa_ms_p50"] = p(spanDurations(t.spans, "app.kcfa"), 50)
	v["app.ms_per_iteration"] = ratio(l.appMs, float64(l.iterations))
	v["app.iterations_per_op"] = per(float64(l.iterations))
	v["app.virtual_comm_share"] = ratio(l.commNs, l.totalNs)

	v["service.queue_ms_p50"] = p(l.queueMs, 50)
	v["service.queue_ms_p99"] = p(l.queueMs, 99)
	v["service.run_ms_p50"] = p(l.runMs, 50)
	v["service.run_ms_p99"] = p(l.runMs, 99)
	v["service.admit_ms_p50"] = p(l.admitMs, 50)
	v["service.admit_ms_p99"] = p(l.admitMs, 99)
	v["service.rejected_quota"] = float64(fails[failQuota])
	v["service.rejected_admission"] = float64(fails[failAdmission])
	v["service.wrong_digests"] = 0
	if t.workload == "bruckd-mix" {
		v["service.wrong_digests"] = float64(fails[failWrong])
	}
	v["service.generator_late_ms_max"] = float64(l.late.Nanoseconds()) / 1e6

	for layer, share := range cpuShares(t.cpu) {
		v["cpu."+layer] = share
	}

	untracedP50 := percentile(latencies(t.untraced), 50)
	tracedP50 := percentile(latencies(t.traced), 50)
	v["trace.untraced_op_p50_ms"] = untracedP50
	v["trace.traced_op_p50_ms"] = tracedP50
	v["trace.overhead_pct"] = ratio(tracedP50-untracedP50, untracedP50) * 100
	return v
}
