package main

import (
	"context"
	"fmt"
	"time"

	"bruckv/internal/graph"
	"bruckv/internal/kcfa"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// fixpoint runs whole BPRA fixpoints back to back, alternating TC over
// LongChain graphs and kCFA-2 over generated programs (the tcbench and
// kcfabench sizes), each exchange a two-phase Bruck Alltoallv on the
// events executor with real payloads and the Theta model. A run cycles
// through fixpointInputs graphs and programs derived from the seed, so
// that no single input's memory or time decides the run's figures.
type fixpoint struct {
	P     int
	alg   string
	edges [fixpointInputs][]graph.Edge
	progs [fixpointInputs]*kcfa.Program

	wantPaths, wantFacts [fixpointInputs]int64

	w      *mpi.World
	bodies []rankBody

	// ref holds the first successful result of each fixpoint, by kind
	// and input; repeats must reproduce its virtual time and iteration
	// count exactly.
	ref [2][fixpointInputs]*fixpointRef
}

type fixpointRef struct {
	totalNs    float64
	iterations int
}

const (
	fixpointP        = 32
	fixpointInputs   = 12
	chainNodes       = 400
	chainExtra       = 800
	kcfaStages       = 120
	kcfaFanout       = 4
	kcfaK            = 2
	fixpointDeadline = 30 * time.Second
)

// rankBody is one rank's host-time interval inside a World.Run.
type rankBody struct{ start, end time.Time }

func setupFixpoint(seed uint64) (instance, error) {
	f := &fixpoint{P: fixpointP, alg: "two-phase"}
	for j := range f.edges {
		sub := seed*fixpointInputs + uint64(j)
		f.edges[j] = graph.LongChain(chainNodes, chainExtra, sub)
		f.progs[j] = kcfa.Generate(kcfaStages, kcfaFanout, kcfaK, sub)
		f.wantPaths[j] = int64(len(graph.SequentialTC(f.edges[j])))
		f.wantFacts[j] = kcfa.Analyze(f.progs[j]).Facts()
	}
	f.bodies = make([]rankBody, f.P)
	if err := f.build(); err != nil {
		return nil, err
	}
	return f, nil
}

// build creates the world and runs one barrier so that its lazy
// set-up is done before timing starts. It uses the events executor: on
// the goroutine executor a false "deadlock detected" (ROADMAP.md item
// 1) fails about one fixpoint in seventy at random, which a benchmark
// whose runs must agree cannot carry.
func (f *fixpoint) build() error {
	w, err := mpi.NewWorld(f.P, mpi.WithModel(machine.Theta()), mpi.WithExecutor(mpi.ExecutorEvents))
	if err != nil {
		return err
	}
	if err := w.Run(func(p *mpi.Proc) error { p.Barrier(); return nil }); err != nil {
		w.Close()
		return fmt.Errorf("fixpoint warm-up: %w", err)
	}
	f.w = w
	return nil
}

func (f *fixpoint) params() map[string]any {
	return map[string]any{
		"P": f.P, "executor": "events", "payloads": "real", "model": "theta", "algorithm": f.alg,
		"tc":            fmt.Sprintf("LongChain(%d,%d)", chainNodes, chainExtra),
		"kcfa":          fmt.Sprintf("Generate(%d,%d,%d)", kcfaStages, kcfaFanout, kcfaK),
		"inputs":        fmt.Sprintf("%d of each, seeds seed*%d+j", fixpointInputs, fixpointInputs),
		"kcfa_facts":    f.wantFacts,
		"op_deadline_s": fixpointDeadline.Seconds(),
	}
}

func (f *fixpoint) close() { f.w.Close() }

func (f *fixpoint) run(d time.Duration, minOps int, rec *recorder, lay *layers, tr *tracer) time.Duration {
	return closedLoop(d, minOps, rec, nil, func(i int) error {
		err := f.op(i, lay, tr)
		if err != nil && classify(err) != failWrong {
			// An aborted run may leave ranks poisoned; start the next op
			// on a fresh world.
			f.w.Close()
			if berr := f.build(); berr != nil {
				return fmt.Errorf("%w; rebuilding world: %v", err, berr)
			}
		}
		return err
	})
}

// op runs one fixpoint: TC on even ops, kCFA on odd ones, each kind
// cycling through its inputs.
func (f *fixpoint) op(i int, lay *layers, tr *tracer) error {
	kind, j := i%2, (i/2)%fixpointInputs
	edges, prog := f.edges[j], f.progs[j]
	name := [2]string{"app.tc", "app.kcfa"}[kind]
	ctx, cancel := context.WithTimeout(context.Background(), fixpointDeadline)
	defer cancel()

	opSpan := tr.begin("op", i, noSpan)
	defer tr.end(opSpan)
	runSpan := tr.begin("mpi.run", i, opSpan)
	var tc graph.TCResult
	var cfa kcfa.Result
	var bodySpan0 int
	var appMs float64
	err := f.w.RunContext(ctx, func(p *mpi.Proc) error {
		r := p.Rank()
		f.bodies[r].start = time.Now()
		defer func() { f.bodies[r].end = time.Now() }()
		if r != 0 {
			if kind == 0 {
				_, err := graph.TransitiveClosure(p, edges, f.alg)
				return err
			}
			_, err := kcfa.Run(p, prog, f.alg)
			return err
		}
		bodySpan0 = tr.begin("mpi.rank_body", i, runSpan)
		defer tr.end(bodySpan0)
		appSpan := tr.begin(name, i, bodySpan0)
		t0 := time.Now()
		var err error
		if kind == 0 {
			tc, err = graph.TransitiveClosure(p, edges, f.alg)
		} else {
			cfa, err = kcfa.Run(p, prog, f.alg)
		}
		appMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(appSpan)
		return err
	})
	tr.end(runSpan)
	if tr != nil {
		// The longest rank body bounds the Run; what remains of the
		// Run span is the executor's own dispatch and join.
		long := longestBody(f.bodies)
		if long != 0 {
			tr.add("mpi.rank_body", i, runSpan, f.bodies[long].start, f.bodies[long].end)
		}
	}
	if err != nil {
		return err
	}
	rs := f.w.RunStats()
	lay.addRun(rs, f.w.TotalMessages(), f.w.TotalBytes())
	if n := rs.Pool.Outstanding(); n != 0 {
		return fmt.Errorf("%w: %s left %d payload buffers outstanding after a clean run", errWrong, name, n)
	}

	var got fixpointRef
	var commNs float64
	switch kind {
	case 0:
		if tc.TotalPaths != f.wantPaths[j] {
			return fmt.Errorf("%w: TC found %d paths, sequential closure has %d", errWrong, tc.TotalPaths, f.wantPaths[j])
		}
		got, commNs = fixpointRef{tc.TotalNs, tc.Iterations}, tc.CommNs
	case 1:
		if cfa.Facts() != f.wantFacts[j] {
			return fmt.Errorf("%w: kCFA derived %d facts, sequential analysis has %d", errWrong, cfa.Facts(), f.wantFacts[j])
		}
		got, commNs = fixpointRef{cfa.TotalNs, cfa.Iterations}, cfa.CommNs
	}
	if ref := f.ref[kind][j]; ref == nil {
		f.ref[kind][j] = &got
	} else if got != *ref {
		return fmt.Errorf("%w: %s input %d repeat gave virtual %v ns in %d iterations, first run %v ns in %d",
			errWrong, name, j, got.totalNs, got.iterations, ref.totalNs, ref.iterations)
	}
	lay.addApp(got.iterations, commNs, got.totalNs, appMs)
	return nil
}

// longestBody returns the index of the longest rank body.
func longestBody(b []rankBody) int {
	best := 0
	for r := range b {
		if b[r].end.Sub(b[r].start) > b[best].end.Sub(b[best].start) {
			best = r
		}
	}
	return best
}

// virtualMsPerOp is the mean simulated time of the fixpoints, which
// repeats reproduce bit for bit.
func (f *fixpoint) virtualMsPerOp() float64 {
	var sum float64
	n := 0
	for _, refs := range f.ref {
		for _, r := range refs {
			if r != nil {
				sum += r.totalNs
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e6
}
