package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"bruckv"
	"bruckv/internal/service"
)

// bruckdMix offers an open-loop Poisson stream of jobs from bruckload's
// seven-template tenant mix to an in-process service.Server built from
// bruckd's default config. Requests go through the server's HTTP
// handler with in-memory requests, so JSON decoding and admission are
// timed but sockets are not.
type bruckdMix struct {
	seed    uint64
	srv     *service.Server
	handler http.Handler

	// Per class (template, seed index): the request body, and the
	// digest a correct server returns ("" for phantom jobs).
	bodies  [][]byte
	digests []string

	// Served virtual time of the last run's jobs.
	virtSum float64
	virtN   int
}

const (
	// mixRate is the offered load in jobs/s: under a third of the rate
	// at which the in-process server saturates on a 2-core host, so
	// that other load on the host does not push it into saturation and
	// latency, not backlog, is measured.
	mixRate = 200.0
	// seedPoolSize matches bruckload: distinct workload seeds per
	// template, each with a precomputed oracle digest.
	seedPoolSize = 4
	mixDeadline  = 10 * time.Second
)

// mixDefaultConfig mirrors cmd/bruckd's built-in demo pool.
func mixDefaultConfig() service.Config {
	return service.Config{
		Worlds: map[string]bruckv.WorldConfig{
			"default": {Size: 32, Preset: "theta"},
			"phantom": {Size: 64, Preset: "theta", Phantom: true},
		},
		Tenants: map[string]service.TenantConfig{
			"tc":      {Quota: service.Quota{MaxRanks: 16}},
			"kcfa":    {Quota: service.Quota{MaxRanks: 16}},
			"uniform": {Quota: service.Quota{MaxInFlight: 16}},
			"phantom": {World: "phantom"},
		},
	}
}

// mixTemplates mirrors cmd/bruckload's workload mix; phantom jobs
// carry no payload bytes to verify.
func mixTemplates() []service.JobRequest {
	return []service.JobRequest{
		{Tenant: "tc", Op: "alltoallv", Ranks: 8, MaxBlock: 2048, Dist: "powerlaw", Base: 0.97},
		{Tenant: "kcfa", Op: "alltoallv", Ranks: 12, MaxBlock: 4096, Dist: "powerlaw", Base: 0.90},
		{Tenant: "uniform", Op: "alltoallv", Ranks: 8, MaxBlock: 1024, Dist: "uniform"},
		{Tenant: "tc", Op: "allgatherv", Ranks: 8, MaxBlock: 1024, Dist: "powerlaw", Base: 0.97},
		{Tenant: "kcfa", Op: "reduce_scatter", Ranks: 8, MaxBlock: 512, Reduce: "xor", Dist: "powerlaw", Base: 0.90},
		{Tenant: "uniform", Op: "allreduce", Ranks: 4, MaxBlock: 4096, Reduce: "sum"},
		{Tenant: "phantom", Op: "alltoallv", Ranks: 24, MaxBlock: 1 << 16, Dist: "uniform"},
	}
}

func setupMix(seed uint64) (instance, error) {
	m := &bruckdMix{seed: seed}
	oracles := map[int]*bruckv.World{}
	defer func() {
		for _, w := range oracles {
			w.Close()
		}
	}()
	for _, tp := range mixTemplates() {
		for i := 0; i < seedPoolSize; i++ {
			req := tp
			req.Seed = seed + uint64(i)
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			digest := ""
			if req.Tenant != "phantom" {
				w := oracles[req.Ranks]
				if w == nil {
					// The events executor detects deadlock exactly, so the
					// goroutine backend's false deadlock cannot fail set-up.
					if w, err = bruckv.NewWorld(req.Ranks, bruckv.WithMachine(bruckv.ZeroCost()), bruckv.WithExecutor(bruckv.Events)); err != nil {
						return nil, err
					}
					oracles[req.Ranks] = w
				}
				if digest, err = service.Digest(w, req); err != nil {
					return nil, fmt.Errorf("oracle digest for %s/%s: %w", req.Tenant, req.Op, err)
				}
			}
			m.bodies = append(m.bodies, body)
			m.digests = append(m.digests, digest)
		}
	}
	srv, err := service.New(mixDefaultConfig())
	if err != nil {
		return nil, err
	}
	m.srv, m.handler = srv, srv.Handler()
	// Warm every class once so sessions and pools are resident.
	for c := range m.bodies {
		m.submit(context.Background(), c)
	}
	return m, nil
}

func (m *bruckdMix) params() map[string]any {
	return map[string]any{
		"offered_rate_per_s": mixRate, "arrivals": "poisson, open loop", "templates": len(mixTemplates()),
		"seed_pool": seedPoolSize, "worlds": "default P=32 theta, phantom P=64 theta",
		"op_deadline_s": mixDeadline.Seconds(),
	}
}

func (m *bruckdMix) close() { m.srv.Close() }

// arrival is one scheduled job: when it is due after the start of the
// run, and which class it submits.
type arrival struct {
	due   time.Duration
	class int
}

// arrivals draws a Poisson arrival schedule of the given rate over d.
func arrivals(seed uint64, classes int, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{due: t, class: rng.Intn(classes)})
	}
}

// outcome is one job's result as the client saw it.
type outcome struct {
	fail      failKind
	handlerNs int64
	resp      service.JobResponse
}

// submit sends class c's request through the HTTP handler and checks
// the served digest.
func (m *bruckdMix) submit(ctx context.Context, c int) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(m.bodies[c]))
	if err != nil {
		return outcome{fail: failOther}
	}
	rw := httptest.NewRecorder()
	t0 := time.Now()
	m.handler.ServeHTTP(rw, req)
	oc := outcome{handlerNs: time.Since(t0).Nanoseconds()}
	switch {
	case rw.Code == http.StatusTooManyRequests:
		oc.fail = failQuota
	case rw.Code == http.StatusServiceUnavailable:
		oc.fail = failAdmission
	case ctx.Err() != nil:
		oc.fail = failDeadline
	case rw.Code != http.StatusOK:
		oc.fail = failOther
	case json.Unmarshal(rw.Body.Bytes(), &oc.resp) != nil:
		oc.fail = failOther
	case oc.resp.Digest != m.digests[c]:
		oc.fail = failWrong
	}
	return oc
}

func (m *bruckdMix) run(d time.Duration, _ int, rec *recorder, lay *layers, tr *tracer) time.Duration {
	sched := arrivals(m.seed, len(m.bodies), mixRate, d)
	due := make([]time.Duration, len(sched))
	for k, a := range sched {
		due[k] = a.due
	}
	outs := make([]outcome, len(sched))
	start := time.Now()
	lat, late := openLoop(start, due, func(k int) {
		ctx, cancel := context.WithTimeout(context.Background(), mixDeadline)
		defer cancel()
		sp := tr.begin("service.handler", k, noSpan)
		outs[k] = m.submit(ctx, sched[k].class)
		tr.end(sp)
	})
	elapsed := time.Since(start)
	lay.setGeneratorLate(late)
	m.virtSum, m.virtN = 0, 0
	for k, oc := range outs {
		if oc.fail == failWrong {
			fmt.Fprintf(os.Stderr, "perfbench: WRONG: job %d (class %d) digest %s, oracle %s\n", k, sched[k].class, oc.resp.Digest, m.digests[sched[k].class])
		}
		rec.add(opRecord{index: k, ms: float64(lat[k].Nanoseconds()) / 1e6, fail: oc.fail})
		if oc.fail != okOp {
			continue
		}
		m.virtSum += oc.resp.VirtualNs
		m.virtN++
		lay.addJob(oc.resp, oc.handlerNs)
	}
	return elapsed
}

// openLoop is the load generator: from the calling goroutine it starts
// request k at start+due[k], each in a goroutine of its own so a slow
// request never delays later ones, and waits for all of them. Each
// latency is measured from the request's due time, so a stall of the
// generator or the host is charged to every request it delayed. It
// also returns how late the generator ran at worst.
func openLoop(start time.Time, due []time.Duration, do func(k int)) (lat []time.Duration, late time.Duration) {
	lat = make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for k := range due {
		at := start.Add(due[k])
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if l := time.Since(at); l > late {
			late = l
		}
		wg.Add(1)
		go func(k int, at time.Time) {
			defer wg.Done()
			do(k)
			lat[k] = time.Since(at)
		}(k, at)
	}
	wg.Wait()
	return lat, late
}

// virtualMsPerOp is the mean simulated time of the served jobs, whose
// schedule the seed and run length fix. A served job's virtual time depends on the clocks its
// leased ranks bring into the job, so it varies slightly with which
// ranks it leased and what they ran before.
func (m *bruckdMix) virtualMsPerOp() float64 {
	if m.virtN == 0 {
		return 0
	}
	return m.virtSum / float64(m.virtN) / 1e6
}
