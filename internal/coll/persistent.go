package coll

import (
	"errors"
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// ErrHandleFreed marks a Start on a persistent handle after Free.
var ErrHandleFreed = errors.New("persistent handle used after Free")

// Persistent non-uniform all-to-all (the MPI_Alltoallv_init analogue),
// built on the radix-r two-phase engine. Initialization freezes
// everything a repeated exchange with fixed counts can reuse: the radix
// schedule (partner sequence, per-sub-step block lists, tags), the
// rotation index, and pinned staging buffers from the rank's pooled
// scratch arena. The first Start additionally freezes the exchange's
// data-dependent state: it compiles every sub-step into a pack list and
// an unpack list of block copies (size, buffer and offset, all known
// once the metadata has travelled), so every later Start skips the
// metadata phase entirely — half the messages per sub-step, and no
// per-call size bookkeeping — and runs two flat loops per sub-step.

// maxAutoRadix bounds the radix AlltoallvInitAuto's model search
// considers.
const maxAutoRadix = 16

// blockOp is one compiled block copy of a frozen sub-step: size bytes
// at byte offset off of the caller's buffer (send when packing, recv
// when unpacking) or, stored as ^off (negative), of the handle's
// working buffer. The staging side is implicit: a list's ops pack into,
// or unpack from, consecutive staging bytes in list order.
type blockOp struct{ off, size int32 }

// PersistentV is a reusable non-uniform all-to-all handle returned by
// AlltoallvInit. It is per-rank state bound to the Proc that built it;
// Start is a collective over the communicator the handle was built on.
// Once the first Start has frozen it, the handle's plan is the compiled
// pack and unpack lists (16 bytes per block moved), the partners of
// each sub-step, and the pinned buffers.
type PersistentV struct {
	p     *mpi.Proc
	sched *schedule
	n     int // global maximum block size

	scounts []int
	sdispls []int
	rcounts []int
	rdispls []int

	// Pinned staging buffers, allocated once from the rank's arena.
	w      buffer.Buf
	stage  buffer.Buf
	rstage buffer.Buf
	meta   buffer.Buf
	rmeta  buffer.Buf

	// State of the recording first Start, dropped once it has frozen
	// the handle (along with the schedule's block lists): idx is the
	// rotation index, size0 each slot's initial size (scounts through
	// idx), size and status each slot's current size and whether it has
	// been received into the working buffer.
	idx    []int
	size0  []int
	size   []int
	status []bool

	// The frozen state, compiled by the first Start: pack[si] and
	// unpack[si] are sub-step si's block copies into the staging buffer
	// and out of the received staging buffer, in schedule order, and
	// inTotal[si] is the received packed length.
	frozen  bool
	pack    [][]blockOp
	unpack  [][]blockOp
	inTotal []int

	executed int
	released bool
}

// checkInitLayout validates the count/displacement arrays of a
// persistent init against the communicator shape (the buffers do not
// exist yet; Start re-validates them against the layout).
func checkInitLayout(p *mpi.Proc, scounts, sdispls, rcounts, rdispls []int) error {
	P := p.Size()
	if len(scounts) != P || len(sdispls) != P || len(rcounts) != P || len(rdispls) != P {
		return fmt.Errorf("coll: init: count/displacement arrays must have length %d (got %d/%d/%d/%d)",
			P, len(scounts), len(sdispls), len(rcounts), len(rdispls))
	}
	for i := 0; i < P; i++ {
		if scounts[i] < 0 || rcounts[i] < 0 || sdispls[i] < 0 || rdispls[i] < 0 {
			return fmt.Errorf("coll: init: negative count or displacement for rank %d", i)
		}
	}
	if scounts[p.Rank()] != rcounts[p.Rank()] {
		return fmt.Errorf("coll: init: self block size mismatch: %d vs %d", scounts[p.Rank()], rcounts[p.Rank()])
	}
	if span(scounts, sdispls) > math.MaxInt32 || span(rcounts, rdispls) > math.MaxInt32 {
		return fmt.Errorf("coll: init: buffer span beyond %d bytes", math.MaxInt32)
	}
	return nil
}

// AlltoallvInit builds a persistent radix-r handle for the given
// layout. It is a collective: all ranks must initialize together, and
// every rank must pass the same radix. The count and displacement
// slices are copied, so later caller mutation does not affect the
// handle.
func AlltoallvInit(p *mpi.Proc, r int, scounts, sdispls, rcounts, rdispls []int) (*PersistentV, error) {
	if r < 2 {
		return nil, errRadix(r)
	}
	if err := checkInitLayout(p, scounts, sdispls, rcounts, rdispls); err != nil {
		return nil, err
	}
	n := p.AllreduceMaxInt(maxInts(scounts))
	return alltoallvInitWithMax(p, r, n, scounts, sdispls, rcounts, rdispls)
}

// AlltoallvInitAuto builds a persistent handle whose radix is chosen
// for the layout: the calibration table's winner where it covers the
// call's (P, maxN) cell and names a two-phase variant, else the machine
// model's best radix in [2, 16] for the call's mean block size. The
// fused allreduce that derives the global shape doubles as the
// max-block reduction, so auto selection costs no extra rounds. t may
// be nil (pure analytic choice).
func AlltoallvInitAuto(p *mpi.Proc, t *Table, scounts, sdispls, rcounts, rdispls []int) (*PersistentV, error) {
	if err := checkInitLayout(p, scounts, sdispls, rcounts, rdispls); err != nil {
		return nil, err
	}
	var local int64
	for _, c := range scounts {
		local += int64(c)
	}
	P := p.Size()
	maxN, total := p.AllreduceMaxIntSumInt64(maxInts(scounts), local)
	avg := float64(total) / float64(P) / float64(P)
	r := persistentRadix(p.World().Model(), t, P, maxN, avg)
	return alltoallvInitWithMax(p, r, maxN, scounts, sdispls, rcounts, rdispls)
}

// persistentRadix picks the radix for an auto-initialized persistent
// handle. It is a pure function of globally agreed values, so all ranks
// agree.
func persistentRadix(m machine.Model, t *Table, P, maxN int, avg float64) int {
	if name, ok := t.Lookup(P, maxN); ok {
		if r, isRadix := RadixOfName(name); isRadix {
			return r
		}
	}
	return m.BestRadix(P, maxAutoRadix, avg)
}

func alltoallvInitWithMax(p *mpi.Proc, r, n int, scounts, sdispls, rcounts, rdispls []int) (*PersistentV, error) {
	P := p.Size()
	rank := p.Rank()
	if P*n > math.MaxInt32 {
		// The compiled block ops address the working buffer with int32.
		return nil, fmt.Errorf("coll: init: working buffer of %d ranks x %d bytes beyond %d bytes", P, n, math.MaxInt32)
	}
	h := &PersistentV{
		p: p, n: n,
		scounts: append([]int(nil), scounts...),
		sdispls: append([]int(nil), sdispls...),
		rcounts: append([]int(nil), rcounts...),
		rdispls: append([]int(nil), rdispls...),
	}
	h.sched = buildSchedule(P, rank, r, radixGen(P, rank, r))
	h.idx = make([]int, P)
	h.size0 = make([]int, P)
	for s := 0; s < P; s++ {
		h.idx[s] = ((2*rank-s)%P + P) % P
		h.size0[s] = scounts[h.idx[s]]
	}
	p.Charge(float64(P))
	if P == 1 || n == 0 {
		return h, nil // nothing travels; Start degenerates to the self copy
	}
	h.w = p.AllocBuf(P * n)
	h.stage = p.AllocBuf(h.sched.maxBlocks * n)
	h.rstage = p.AllocBuf(h.sched.maxBlocks * n)
	h.meta = p.AllocReal(4 * h.sched.maxBlocks)
	h.rmeta = p.AllocReal(4 * h.sched.maxBlocks)
	h.size = make([]int, P)
	h.status = make([]bool, P)
	subs := len(h.sched.steps)
	h.pack = make([][]blockOp, subs)
	h.unpack = make([][]blockOp, subs)
	h.inTotal = make([]int, subs)
	return h, nil
}

// Radix returns the handle's two-phase radix.
func (h *PersistentV) Radix() int { return h.sched.r }

// MaxBlock returns the global maximum block size in bytes.
func (h *PersistentV) MaxBlock() int { return h.n }

// Executions returns how many times the handle has started.
func (h *PersistentV) Executions() int { return h.executed }

// SendSpan and RecvSpan return the minimum buffer lengths Start
// accepts (the furthest extent of any declared block).
func (h *PersistentV) SendSpan() int { return span(h.scounts, h.sdispls) }

// RecvSpan is the receive-side counterpart of SendSpan.
func (h *PersistentV) RecvSpan() int { return span(h.rcounts, h.rdispls) }

// Free returns the handle's pinned buffers to the rank's scratch arena.
// The handle must not be started again afterwards. Freeing is optional
// — an unfreed handle is garbage-collected — but long-lived ranks that
// build many handles should free them so the scratch memory recycles.
func (h *PersistentV) Free() {
	if h.released {
		return
	}
	h.released = true
	h.p.FreeBuf(h.w, h.stage, h.rstage, h.meta, h.rmeta)
	h.w, h.stage, h.rstage, h.meta, h.rmeta = buffer.Buf{}, buffer.Buf{}, buffer.Buf{}, buffer.Buf{}, buffer.Buf{}
}

// Start performs one exchange with the frozen layout: send and recv
// must satisfy the counts and displacements given at init. It is a
// collective; every initializing rank must start the same number of
// times. The first Start runs the full two-phase exchange and compiles
// it into per-sub-step pack and unpack lists; every later Start replays
// those lists without the metadata phase.
func (h *PersistentV) Start(send, recv buffer.Buf) error {
	if h.released {
		return fmt.Errorf("coll: %w", ErrHandleFreed)
	}
	p := h.p
	P := p.Size()
	rank := p.Rank()
	if err := checkV(p, send, h.scounts, h.sdispls, recv, h.rcounts, h.rdispls); err != nil {
		return err
	}
	p.Memcpy(recv.Slice(h.rdispls[rank], h.rcounts[rank]), send.Slice(h.sdispls[rank], h.scounts[rank]))
	h.executed++
	if P == 1 || h.n == 0 {
		return nil
	}
	defer p.ClearStep()
	if h.frozen {
		h.startFrozen(send, recv)
		return nil
	}
	return h.startFirst(send, recv)
}

// startFirst is the recording execution: a full metadata+data exchange
// that compiles every sub-step's pack and unpack lists, after which the
// handle is frozen and the state only this execution reads is dropped.
func (h *PersistentV) startFirst(send, recv buffer.Buf) error {
	p := h.p
	P := p.Size()
	rank := p.Rank()
	copy(h.size, h.size0)
	for s := range h.status {
		h.status[s] = false
	}
	for si := range h.sched.steps {
		sub := &h.sched.steps[si]
		p.SetStep(si)

		for j, i := range sub.rel {
			s := (i + rank) % P
			h.meta.PutUint32(4*j, uint32(h.size[s]))
		}
		mtag := tagRadixMeta + si
		p.SendRecv(sub.dst, mtag, h.meta.Slice(0, 4*len(sub.rel)), sub.src, mtag, h.rmeta.Slice(0, 4*len(sub.rel)))

		pack := make([]blockOp, len(sub.rel))
		off := 0
		for j, i := range sub.rel {
			s := (i + rank) % P
			op := blockOp{off: int32(h.sdispls[h.idx[s]]), size: int32(h.size[s])}
			if h.status[s] {
				op.off = ^int32(s * h.n)
			}
			pack[j] = op
			p.Memcpy(h.stage.Slice(off, h.size[s]), h.block(send, op))
			off += h.size[s]
		}
		dtag := tagRadixData + si
		p.Send(sub.dst, dtag, h.stage.Slice(0, off))

		total := 0
		for j := range sub.rel {
			total += int(h.rmeta.Uint32(4 * j))
		}
		p.Recv(sub.src, dtag, h.rstage.Slice(0, total))

		unpack := make([]blockOp, len(sub.rel))
		roff := 0
		for j, i := range sub.rel {
			s := (i + rank) % P
			sz := int(h.rmeta.Uint32(4 * j))
			op := blockOp{off: ^int32(s * h.n), size: int32(sz)}
			if j < sub.final {
				if sz != h.rcounts[s] {
					return fmt.Errorf("coll: two-phase-r%d: block for slot %d arrived with %d bytes, rcounts says %d",
						h.sched.r, s, sz, h.rcounts[s])
				}
				op.off = int32(h.rdispls[s])
			}
			unpack[j] = op
			p.Memcpy(h.block(recv, op), h.rstage.Slice(roff, sz))
			roff += sz
			h.size[s] = sz
			h.status[s] = true
		}
		h.pack[si], h.unpack[si], h.inTotal[si] = pack, unpack, total
	}
	h.frozen = true
	for si := range h.sched.steps {
		h.sched.steps[si].rel = nil
	}
	h.idx, h.size0, h.size, h.status = nil, nil, nil, nil
	return nil
}

// startFrozen replays the compiled schedule: per sub-step, one flat
// loop packs the pack list, one data message travels each way, and one
// flat loop unpacks the unpack list. No metadata travels and no sizes
// or placements are recomputed.
func (h *PersistentV) startFrozen(send, recv buffer.Buf) {
	p := h.p
	for si := range h.sched.steps {
		sub := &h.sched.steps[si]
		p.SetStep(si)
		off := 0
		for _, op := range h.pack[si] {
			p.Memcpy(h.stage.Slice(off, int(op.size)), h.block(send, op))
			off += int(op.size)
		}
		dtag := tagRadixData + si
		p.Send(sub.dst, dtag, h.stage.Slice(0, off))
		p.Recv(sub.src, dtag, h.rstage.Slice(0, h.inTotal[si]))
		off = 0
		for _, op := range h.unpack[si] {
			p.Memcpy(h.block(recv, op), h.rstage.Slice(off, int(op.size)))
			off += int(op.size)
		}
	}
}

// block returns op's block: in the working buffer when op.off is
// negative, else in b (the caller's send or recv buffer).
func (h *PersistentV) block(b buffer.Buf, op blockOp) buffer.Buf {
	if op.off < 0 {
		b = h.w
		op.off = ^op.off
	}
	return b.Slice(int(op.off), int(op.size))
}
