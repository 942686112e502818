package coll

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
	"bruckv/internal/trace"
)

// Virtual-time golden: the run's maximum virtual clock (as float64
// bits) and every rank's memcpy trace-event count are pinned for the
// Bruck skeleton's block-copy paths — uniform zero-rotation Bruck,
// padded Bruck, and the persistent radix handle's recording and frozen
// Starts — at non-power-of-two and power-of-two P, with phantom and
// real payloads. The executor-diff harness compares backends within
// one build; this file compares builds, so a host-side rewrite of the
// copy loops that reorders or merges a single priced block shows up
// here. Deliberate model changes regenerate the file with:
//
//	UPDATE_VTIME_GOLDEN=1 go test -run TestVirtualTimeGolden ./internal/coll

const vtimeGoldenPath = "testdata/vtime.golden"

// goldenLayout is one rank's non-uniform layout and buffers.
type goldenLayout struct {
	send, recv     buffer.Buf
	sc, sd, rc, rd []int
}

// vtimeGoldenCase runs each step as its own Run of one traced world and
// returns the golden line of the last Run. Every rank's layout is built
// once, before the first step.
func vtimeGoldenCase(t *testing.T, name string, P int, phantom bool, steps ...func(p *mpi.Proc, l *goldenLayout) error) string {
	t.Helper()
	opts := []mpi.Option{mpi.WithTrace()}
	if phantom {
		opts = append(opts, mpi.WithPhantom())
	}
	w, err := mpi.NewWorld(P, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	layouts := make([]goldenLayout, P)
	for r := range layouts {
		l := &layouts[r]
		var rTotal int
		l.send, l.sc, l.sd, l.rc, l.rd, rTotal = vSetup(r, P, 40, 17)
		l.recv = buffer.New(rTotal)
		if phantom {
			l.send, l.recv = buffer.Phantom(l.send.Len()), buffer.Phantom(rTotal)
		}
	}
	for i, step := range steps {
		if err := w.Run(func(p *mpi.Proc) error { return step(p, &layouts[p.Rank()]) }); err != nil {
			t.Fatalf("%s: run %d: %v", name, i, err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %#016x", name, math.Float64bits(w.MaxTime()))
	tr := w.Trace()
	for r := 0; r < P; r++ {
		n := 0
		for _, ev := range tr.Events(r) {
			if ev.Kind == trace.KindMemcpy {
				n++
			}
		}
		fmt.Fprintf(&b, " %d", n)
	}
	return b.String()
}

func vtimeGoldenLines(t *testing.T) []string {
	var lines []string
	for _, P := range []int{5, 12, 64} {
		for _, phantom := range []bool{true, false} {
			mode := "real"
			if phantom {
				mode = "phantom"
			}
			tag := fmt.Sprintf("P=%d/%s", P, mode)
			lines = append(lines, vtimeGoldenCase(t, "zerorotation/"+tag, P, phantom,
				func(p *mpi.Proc, _ *goldenLayout) error {
					const n = 24
					send := buffer.Make(P*n, phantom)
					send.FillPattern(uint64(p.Rank()))
					return ZeroRotationBruck(p, send, n, buffer.Make(P*n, phantom))
				}))
			lines = append(lines, vtimeGoldenCase(t, "padded/"+tag, P, phantom,
				func(p *mpi.Proc, l *goldenLayout) error {
					return PaddedBruck(p, l.send, l.sc, l.sd, l.recv, l.rc, l.rd)
				}))
			for _, r := range []int{2, 4} {
				handles := make([]*PersistentV, P)
				steps := []func(p *mpi.Proc, l *goldenLayout) error{
					func(p *mpi.Proc, l *goldenLayout) (err error) {
						handles[p.Rank()], err = AlltoallvInit(p, r, l.sc, l.sd, l.rc, l.rd)
						return err
					},
				}
				start := func(p *mpi.Proc, l *goldenLayout) error { return handles[p.Rank()].Start(l.send, l.recv) }
				// Init, then the recording Start alone in its Run; the
				// frozen case repeats the world and adds one more Start.
				for _, which := range []string{"first", "frozen"} {
					steps = append(steps, start)
					name := fmt.Sprintf("persistent-r%d-%s/%s", r, which, tag)
					lines = append(lines, vtimeGoldenCase(t, name, P, phantom, steps...))
				}
			}
		}
	}
	return lines
}

func TestVirtualTimeGolden(t *testing.T) {
	got := strings.Join(vtimeGoldenLines(t), "\n") + "\n"
	if os.Getenv("UPDATE_VTIME_GOLDEN") != "" {
		if err := os.WriteFile(vtimeGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(vtimeGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_VTIME_GOLDEN=1)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("virtual time or memcpy events changed:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
