package main

import (
	"context"
	"fmt"
	"time"

	"bruckv"
	"bruckv/internal/dist"
)

// a2avScale runs, per op, one blocking Comm.Alltoallv (Auto) on a
// fresh small-block layout, then one Start of a persistent handle built
// once on a fixed layout, on the events executor with phantom payloads
// at P=512.
type a2avScale struct {
	P      int
	spec   dist.Spec
	w      *bruckv.World
	handle []*bruckv.Persistent

	// Layouts of the current op, filled before the op is timed. ops
	// counts the ops of all runs so far, so no two ops share a fresh
	// layout; cur is the layout iteration of the current op.
	sc, sd, rc, rd [][]int
	ops, cur       int

	// checkRef is the result of layout iteration checkOf, which a later
	// op repeats; the repeat must reproduce it exactly, and every Start
	// of the frozen handle must reproduce startRef.
	checkRef callRef
	checkOf  int
	startRef callRef
	// opVirtualNs holds the simulated time of the first virtualOps ops.
	opVirtualNs []float64
	// Rank 0's AlltoallvInit interval at setup, recorded as a span by
	// the first traced run.
	initStart, initEnd time.Time
	initTraced         bool
}

type callRef struct {
	virtualNs float64
	msgs      int64
}

const (
	a2avP        = 512
	a2avMaxBlock = 64
	// repeatEvery: op n runs layout iteration n, except that every
	// repeatEvery-th op re-runs the layout of the op repeatEvery-1
	// before it, which checks that a blocking call is reproducible.
	repeatEvery = 32
	// virtualOps is how many ops virtual_ms_per_op averages over, so
	// that it depends on the seed alone: every untraced run attempts at
	// least minClosedOps ops.
	virtualOps   = minClosedOps
	a2avDeadline = 30 * time.Second
)

func setupA2av(seed uint64) (instance, error) {
	a := &a2avScale{
		P:       a2avP,
		spec:    dist.Spec{Kind: dist.Uniform, N: a2avMaxBlock, Seed: seed},
		handle:  make([]*bruckv.Persistent, a2avP),
		checkOf: -1,
	}
	for _, l := range []*[][]int{&a.sc, &a.sd, &a.rc, &a.rd} {
		*l = make([][]int, a.P)
		for r := range *l {
			(*l)[r] = make([]int, a.P)
		}
	}
	w, err := bruckv.NewWorld(a.P, bruckv.WithExecutor(bruckv.Events), bruckv.WithPhantom())
	if err != nil {
		return nil, err
	}
	a.w = w
	// The handle's layout is derived from the seed but never used by
	// an op, so the fixed and the changing layouts are unrelated.
	a.fillLayouts(a.spec.WithIteration(-1))
	err = w.Run(func(c *bruckv.Comm) error {
		r := c.Rank()
		t0 := time.Now()
		h, err := c.AlltoallvInit(a.sc[r], a.sd[r], a.rc[r], a.rd[r])
		if r == 0 {
			a.initStart, a.initEnd = t0, time.Now()
		}
		a.handle[r] = h
		return err
	})
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("a2av-scale init: %w", err)
	}
	// The first Start freezes the metadata, so it differs from every
	// later one; the second is the reference.
	for i := 0; i < 2; i++ {
		if err := w.Run(func(c *bruckv.Comm) error { return a.handle[c.Rank()].Start(nil, nil) }); err != nil {
			w.Close()
			return nil, fmt.Errorf("a2av-scale warm-up start: %w", err)
		}
	}
	st := w.Stats()
	a.startRef = callRef{st.MaxTimeNs, st.TotalMessages}
	return a, nil
}

func (a *a2avScale) fillLayouts(s dist.Spec) {
	for r := 0; r < a.P; r++ {
		s.Counts(r, a.P, a.sc[r], a.rc[r])
		displs(a.sc[r], a.sd[r])
		displs(a.rc[r], a.rd[r])
	}
}

// displs writes the exclusive prefix sums of counts into d.
func displs(counts, d []int) {
	off := 0
	for i, c := range counts {
		d[i] = off
		off += c
	}
}

func (a *a2avScale) params() map[string]any {
	return map[string]any{
		"P": a.P, "executor": "events", "payloads": "phantom", "model": "theta", "algorithm": "auto",
		"dist": a.spec.String(), "repeat_every": repeatEvery, "handle_radix": a.handle[0].Radix(),
		"op_deadline_s": a2avDeadline.Seconds(),
	}
}

func (a *a2avScale) close() { a.w.Close() }

func (a *a2avScale) run(d time.Duration, minOps int, rec *recorder, lay *layers, tr *tracer) time.Duration {
	lay.setInitUs(float64(a.initEnd.Sub(a.initStart).Nanoseconds()) / 1e3)
	if tr != nil && !a.initTraced {
		tr.add("coll.init", -1, noSpan, a.initStart, a.initEnd)
		a.initTraced = true
	}
	return closedLoop(d, minOps, rec,
		func(int) {
			a.cur = layoutOf(a.ops)
			a.fillLayouts(a.spec.WithIteration(a.cur))
		},
		func(i int) error {
			defer func() { a.ops++ }()
			return a.op(i, lay, tr)
		})
}

// layoutOf returns the layout iteration op n runs.
func layoutOf(n int) int {
	if n%repeatEvery == repeatEvery-1 {
		return n - (repeatEvery - 1)
	}
	return n
}

// op runs the blocking call and the persistent Start as two Runs, so
// each starts from fresh clocks and its virtual time and message count
// are the call's own.
func (a *a2avScale) op(i int, lay *layers, tr *tracer) error {
	ctx, cancel := context.WithTimeout(context.Background(), a2avDeadline)
	defer cancel()
	opSpan := tr.begin("op", i, noSpan)
	defer tr.end(opSpan)

	call := func(name string, fn func(c *bruckv.Comm) error) (callRef, error) {
		runSpan := tr.begin("mpi.run", i, opSpan)
		err := a.w.RunContext(ctx, func(c *bruckv.Comm) error {
			if c.Rank() != 0 {
				return fn(c)
			}
			sp := tr.begin(name, i, runSpan)
			t0 := time.Now()
			err := fn(c)
			lay.addCallUs(name, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)
			return err
		})
		tr.end(runSpan)
		if err != nil {
			return callRef{}, err
		}
		st := a.w.Stats()
		lay.addPublicRun(st)
		lay.addCalls(1, st.MaxTimeNs)
		return callRef{st.MaxTimeNs, st.TotalMessages}, nil
	}

	got, err := call("coll.alltoallv", func(c *bruckv.Comm) error {
		r := c.Rank()
		return c.Alltoallv(nil, a.sc[r], a.sd[r], nil, a.rc[r], a.rd[r])
	})
	if err != nil {
		return err
	}
	switch {
	case a.cur != a.ops:
		if a.checkOf == a.cur && got != a.checkRef {
			return fmt.Errorf("%w: layout %d repeat gave %v ns / %d msgs, first run %v ns / %d msgs",
				errWrong, a.cur, got.virtualNs, got.msgs, a.checkRef.virtualNs, a.checkRef.msgs)
		}
	case a.cur%repeatEvery == 0:
		a.checkRef, a.checkOf = got, a.cur
	}
	st, err := call("coll.start", func(c *bruckv.Comm) error { return a.handle[c.Rank()].Start(nil, nil) })
	if err != nil {
		return err
	}
	if st != a.startRef {
		return fmt.Errorf("%w: persistent Start gave %v ns / %d msgs, reference %v ns / %d msgs",
			errWrong, st.virtualNs, st.msgs, a.startRef.virtualNs, a.startRef.msgs)
	}
	if a.ops < virtualOps {
		a.opVirtualNs = append(a.opVirtualNs, got.virtualNs+st.virtualNs)
	}
	return nil
}

// virtualMsPerOp is the mean simulated time of the first virtualOps
// ops (blocking call plus Start), fixed by the seed.
func (a *a2avScale) virtualMsPerOp() float64 {
	if len(a.opVirtualNs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range a.opVirtualNs {
		sum += v
	}
	return sum / float64(len(a.opVirtualNs)) / 1e6
}
