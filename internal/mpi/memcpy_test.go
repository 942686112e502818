package mpi

import (
	"math"
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/trace"
)

// TestMemcpyBlocksMatchesPerBlockMemcpy pins MemcpyBlocks to what it
// replaces: k Memcpy calls of one n-byte block each must leave the same
// clock bits, the same memcpy trace events (count, Bytes, Start, Dur)
// and the same destination bytes, for every mode combination the
// algorithms use and for k = 0.
func TestMemcpyBlocksMatchesPerBlockMemcpy(t *testing.T) {
	const n, slack = 37, 11
	cases := []struct {
		name             string
		k                int
		dstReal, srcReal bool
	}{
		{"real-to-real", 5, true, true},
		{"real-to-phantom", 5, false, true},
		{"phantom-to-real", 5, true, false},
		{"k=0", 0, true, true},
	}
	// run copies k blocks with the given copier after an odd charge, so
	// the model's additions round, and returns the final clock, the
	// memcpy events and the destination (which has slack bytes past the
	// copied run that must stay untouched).
	run := func(k int, dstReal, srcReal bool, copier func(p *Proc, dst, src buffer.Buf)) (float64, []trace.Event, buffer.Buf) {
		w, err := NewWorld(1, WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		dst := buffer.Make(k*n+slack, !dstReal)
		dst.FillPattern(1)
		src := buffer.Make(k*n+slack, !srcReal)
		src.FillPattern(2)
		err = w.Run(func(p *Proc) error {
			p.Charge(0.1)
			p.SetStep(3)
			copier(p, dst, src)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var evs []trace.Event
		for _, ev := range w.Trace().Events(0) {
			if ev.Kind == trace.KindMemcpy {
				evs = append(evs, ev)
			}
		}
		return w.MaxTime(), evs, dst
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantT, wantEv, wantDst := run(c.k, c.dstReal, c.srcReal, func(p *Proc, dst, src buffer.Buf) {
				for i := 0; i < c.k; i++ {
					p.Memcpy(dst.Slice(i*n, n), src.Slice(i*n, n))
				}
			})
			var moved int
			gotT, gotEv, gotDst := run(c.k, c.dstReal, c.srcReal, func(p *Proc, dst, src buffer.Buf) {
				moved = p.MemcpyBlocks(dst, src, c.k, n)
			})
			if moved != c.k*n {
				t.Errorf("MemcpyBlocks returned %d, want %d", moved, c.k*n)
			}
			if math.Float64bits(gotT) != math.Float64bits(wantT) {
				t.Errorf("clock %v (%#x), per-block Memcpy %v (%#x)", gotT, math.Float64bits(gotT), wantT, math.Float64bits(wantT))
			}
			if len(gotEv) != len(wantEv) || len(gotEv) != c.k {
				t.Fatalf("%d memcpy events, per-block Memcpy %d, want %d", len(gotEv), len(wantEv), c.k)
			}
			for i := range gotEv {
				g, e := gotEv[i], wantEv[i]
				if g.Bytes != e.Bytes || g.Step != e.Step ||
					math.Float64bits(g.Start) != math.Float64bits(e.Start) ||
					math.Float64bits(g.Dur) != math.Float64bits(e.Dur) {
					t.Errorf("event %d: %+v, per-block Memcpy %+v", i, g, e)
				}
			}
			if gotDst.Real() != wantDst.Real() {
				t.Fatalf("destination mode changed")
			}
			if gotDst.Real() {
				g, e := gotDst.Bytes(), wantDst.Bytes()
				for i := range g {
					if g[i] != e[i] {
						t.Fatalf("destination byte %d: %d, per-block Memcpy %d", i, g[i], e[i])
					}
				}
			}
		})
	}
}
