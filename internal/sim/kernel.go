package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// BatchInjection forces a stuck value onto a signal in a subset of the
// 64*W slots of a BatchEngine. Pin == -1 forces the output of Node (a
// stem fault); Pin >= 0 forces the value Node reads from its Pin-th
// fanin. Mask holds one word per batch word (bit k of Mask[j] selects
// slot j*64+k); words beyond len(Mask) are unaffected. SetInjections
// copies the nonzero words it needs, so Mask may be reused as soon as
// it returns.
type BatchInjection struct {
	Node  int
	Pin   int
	Stuck logic.Value
	Mask  []uint64
}

// patchOp is one word of an installed injection: vals[dst] takes
// vals[src] with the masked slots forced to stuck. An output fault
// merges in place (src == dst); a branch's first fault copies the stem
// into it word by word, merging as it copies, and any further faults on
// the branch merge in place. at is where the op
// applies: before stream instruction at (at == NumInstrs: after the
// last one), atFF/atSource at EvalComb start, atLatch at ClockFF
// start.
type patchOp struct {
	at, dst, src int32
	mask         uint64
	stuck        logic.Word
}

// Application points of patch ops outside the stream. atFF ops (stuck
// flip-flop outputs) also re-apply after every latch.
const (
	atFF     = -1
	atSource = 0 // gates' fix points are all past their own instruction, so > 0
	atLatch  = math.MaxInt32
)

// BatchEngine executes a compiled Program over W-word batches: 64*W
// parallel slots per signal instead of the interpreter Engine's 64. The
// value arena is allocated once (at the capacity width) and reused
// across passes; the hot loop sweeps the instruction stream one
// same-opcode run at a time, with no per-gate kind dispatch or
// fanin-slice walking.
//
// Injections are installed as patch ops, never as extra instructions.
// An output fault merges its stuck value into the node's words at the
// node's fix point (see Program.fixPoints). A pin fault gets a branch
// slot past the program's slots: the reading operand of the engine's
// private instruction copy (or, for a DFF D-pin, its latch entry) is
// re-pointed there, and the branch is a copy of the stem taken at the
// stem's fix point, with the pin faults merged into it. Every fault so
// costs a few word merges, and the stream is split only at the distinct
// fix points that carry ops. Per word this is the interpreter's order:
// output forces first, then pin forces in input order, so results are
// bit-identical slot for slot.
type BatchEngine struct {
	p   *Program
	c   *circuit.Circuit
	cap int // allocated width in words
	w   int // active width in words (<= cap)

	// vals is the value arena: slot s occupies vals[s*w : (s+1)*w].
	// Slots [p.nslots, p.nslots+nbranch) are branch slots, of which the
	// first used carry the installed pin sites.
	vals          []logic.Word
	nbranch, used int

	code []instr   // the program's stream then latch entries, re-pointed by pin faults
	undo []patched // original entries of re-pointed code, restored in reverse

	keys          []uint64  // SetInjections' sort buffer
	ops           []patchOp // installed injections, sorted by at
	ffEnd, srcEnd int       // ops[:ffEnd] apply at atFF, ops[:srcEnd] at EvalComb start
	latchFrom     int       // ops[latchFrom:] apply at atLatch

	scratch []logic.Word // per-DFF next-state buffer (nff * cap)
}

// patched records a code entry's value before SetInjections re-pointed it.
type patched struct {
	at int32
	in instr
}

// NewBatch returns a BatchEngine executing p over w-word batches, with
// all signals X. The width is also the engine's capacity: SetWidth can
// later shrink (and re-grow) the active width without reallocating.
// The arena starts with one branch slot per slot of a full-width batch,
// so a fault-simulation pass never needs to grow it.
func NewBatch(p *Program, w int) *BatchEngine {
	if w < 1 {
		w = 1
	}
	nbranch := 64 * w
	return &BatchEngine{
		p:       p,
		c:       p.c,
		cap:     w,
		w:       w,
		vals:    make([]logic.Word, (p.nslots+nbranch)*w),
		nbranch: nbranch,
		code:    slices.Concat(p.instrs, p.latch),
		scratch: make([]logic.Word, p.c.NumFFs()*w),
	}
}

// Circuit returns the netlist this engine simulates.
func (e *BatchEngine) Circuit() *circuit.Circuit { return e.c }

// Program returns the compiled program this engine executes.
func (e *BatchEngine) Program() *Program { return e.p }

// Width returns the active batch width in words.
func (e *BatchEngine) Width() int { return e.w }

// Cap returns the allocated capacity width in words.
func (e *BatchEngine) Cap() int { return e.cap }

// SetWidth switches the active batch width to w (1 <= w <= Cap) and
// resets the engine. Passes of different widths can so share one arena.
func (e *BatchEngine) SetWidth(w int) {
	if w < 1 || w > e.cap {
		panic(fmt.Sprintf("sim: SetWidth(%d) outside [1, %d]", w, e.cap))
	}
	e.w = w
	e.Reset()
}

// slot returns the value words of arena slot s.
func (e *BatchEngine) slot(s int) logic.WordVec {
	return e.vals[s*e.w : (s+1)*e.w : (s+1)*e.w]
}

// Reset sets every signal to X in all slots and clears injections.
func (e *BatchEngine) Reset() {
	clear(e.vals[:e.p.nslots*e.w])
	e.clearInjections()
}

func (e *BatchEngine) clearInjections() {
	for i := len(e.undo) - 1; i >= 0; i-- {
		e.code[e.undo[i].at] = e.undo[i].in
	}
	e.undo = e.undo[:0]
	e.ops = e.ops[:0]
	e.ffEnd, e.srcEnd, e.latchFrom = 0, 0, 0
	e.used = 0
}

// SetInjections installs the active fault injections, replacing any
// previous set, at the active width.
func (e *BatchEngine) SetInjections(injs []BatchInjection) {
	e.clearInjections()
	p := e.p
	// Order the injections by application point, output faults before
	// pin faults at each point (a stem's own forces precede the branch
	// copies taken from it), and in input order within each class. The
	// ops then come out sorted.
	e.keys = e.keys[:0]
	for k, in := range injs {
		var at int32
		class := uint64(0)
		if in.Pin < 0 {
			at = p.fix[in.Node]
			if at < 0 {
				at = atSource
				if e.c.Nodes[in.Node].Kind == circuit.DFF {
					at = atFF
				}
			}
		} else if ref := p.pins[int(p.pinOff[in.Node])+in.Pin]; ref>>refShift >= int32(len(p.instrs)) {
			at, class = atLatch, 1
		} else {
			at, class = max(p.fix[e.c.Nodes[in.Node].Fanin[in.Pin]], atSource), 1
		}
		e.keys = append(e.keys, uint64(int64(at)-atFF)<<32|class<<31|uint64(k))
	}
	slices.Sort(e.keys)
	for _, key := range e.keys {
		in := &injs[key&(1<<31-1)]
		at := int32(int64(key>>32) + atFF)
		if in.Pin < 0 {
			e.merge(at, int32(in.Node), int32(in.Node), in)
			continue
		}
		ref := p.pins[int(p.pinOff[in.Node])+in.Pin]
		i := ref >> refShift
		br := e.code[i].b
		if ref&refA != 0 {
			br = e.code[i].a
		}
		if br >= int32(p.nslots) { // the site already has its branch
			e.merge(at, br, br, in)
			continue
		}
		stem := int32(e.c.Nodes[in.Node].Fanin[in.Pin])
		br = e.branch()
		e.undo = append(e.undo, patched{i, e.code[i]})
		if ref&refA != 0 {
			e.code[i].a = br
		}
		if ref&refB != 0 {
			e.code[i].b = br
		}
		e.merge(at, br, stem, in)
	}
	e.ffEnd = e.opsBefore(atFF + 1)
	e.srcEnd = e.opsBefore(atSource + 1)
	e.latchFrom = e.opsBefore(atLatch)
}

// opsBefore returns the number of installed ops applying before at.
func (e *BatchEngine) opsBefore(at int32) int {
	n, _ := slices.BinarySearchFunc(e.ops, at, func(o patchOp, at int32) int { return cmp.Compare(o.at, at) })
	return n
}

// merge appends the ops that write slot dst as slot src with in's
// masked slots forced, at application point at. A copy (src != dst)
// writes every word; an in-place merge skips the words in leaves alone.
func (e *BatchEngine) merge(at, dst, src int32, in *BatchInjection) {
	stuck := logic.FromValue(in.Stuck)
	w := int32(e.w)
	for j := range w {
		var m uint64
		if int(j) < len(in.Mask) {
			m = in.Mask[j]
		}
		if m != 0 || src != dst {
			e.ops = append(e.ops, patchOp{at: at, dst: dst*w + j, src: src*w + j, mask: m, stuck: stuck})
		}
	}
}

// branch hands out the next free branch slot, doubling the branch
// region (and keeping the arena's contents) when it is full.
func (e *BatchEngine) branch() int32 {
	if e.used == e.nbranch {
		e.nbranch *= 2
		vals := make([]logic.Word, (e.p.nslots+e.nbranch)*e.cap)
		copy(vals, e.vals)
		e.vals = vals
	}
	e.used++
	return int32(e.p.nslots + e.used - 1)
}

// apply runs patch ops in order.
func (e *BatchEngine) apply(ops []patchOp) {
	vals := e.vals
	for i := range ops {
		o := &ops[i]
		vals[o.dst] = vals[o.src].Merge(o.stuck, o.mask)
	}
}

// SetPIVector broadcasts a scalar PI vector to all slots.
func (e *BatchEngine) SetPIVector(vec logic.Vector) {
	w := e.w
	for i, pi := range e.c.PIs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		wd := logic.FromValue(v)
		d := e.vals[pi*w : (pi+1)*w]
		for k := range d {
			d[k] = wd
		}
	}
}

// SetStateVector broadcasts a scalar state (scan-in vector) to all
// slots; positions beyond len(vec) become X.
func (e *BatchEngine) SetStateVector(vec logic.Vector) {
	for i := range e.c.DFFs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.SetStateValue(i, v)
	}
}

// SetStateValue broadcasts a scalar value to the i-th flip-flop
// (scan order) in all slots.
func (e *BatchEngine) SetStateValue(i int, v logic.Value) {
	e.slot(e.c.DFFs[i]).Fill(logic.FromValue(v))
}

// SetStateSlot sets the i-th flip-flop (scan order) to v in slot k
// alone (0 <= k < 64*Width), leaving every other slot as it was: the
// per-slot counterpart of SetStateValue, for starting each slot of a
// batch from its own state.
func (e *BatchEngine) SetStateSlot(i, k int, v logic.Value) {
	e.slot(e.c.DFFs[i]).Set(k, v)
}

// SetNodeVec copies wv (up to the active width) into node n's slots —
// the batch analogue of Engine.SetNode, for driving arbitrary per-slot
// patterns in tests.
func (e *BatchEngine) SetNodeVec(n int, wv logic.WordVec) {
	copy(e.slot(n), wv)
}

// Val returns the current value words of node n. The returned slice
// aliases the arena; treat it as read-only.
func (e *BatchEngine) Val(n int) logic.WordVec { return e.slot(n) }

// PO returns the value words of the i-th primary output (read-only).
func (e *BatchEngine) PO(i int) logic.WordVec { return e.slot(e.c.POs[i]) }

// State returns the value words of the i-th flip-flop (read-only).
func (e *BatchEngine) State(i int) logic.WordVec { return e.slot(e.c.DFFs[i]) }

// EvalComb evaluates the combinational network from the current PI and
// state values: constants are driven, source injections applied (stuck
// sources, then branches of source stems), then the instruction stream
// executes with the remaining injections patched in at their fix
// points.
func (e *BatchEngine) EvalComb() {
	for _, n := range e.p.const0 {
		e.slot(int(n)).Fill(logic.AllZero)
	}
	for _, n := range e.p.const1 {
		e.slot(int(n)).Fill(logic.AllOne)
	}
	e.apply(e.ops[:e.srcEnd])
	e.exec()
}

// exec runs the compiled program over the active width. This is the
// hottest loop in the repository: keep it allocation-free and
// branch-predictable. It switches once per same-opcode run (see
// Compile) and then loops over the run's operands, so the dispatch
// branch is not re-decided per instruction.
//
// A run is split only at the distinct fix points that carry patch ops;
// the ops of each apply there in one tight loop, before the instruction
// at that point reads the patched values.
func (e *BatchEngine) exec() {
	code, vals := e.code, e.vals
	ops := e.ops[e.srcEnd:e.latchFrom]
	start := int32(0)
	for _, r := range e.p.runs {
		for start < r.end {
			end := r.end
			if len(ops) > 0 && ops[0].at < end {
				end = ops[0].at
			}
			e.execRun(r.op, code[start:end])
			for len(ops) > 0 && ops[0].at == end {
				o := &ops[0]
				vals[o.dst] = vals[o.src].Merge(o.stuck, o.mask)
				ops = ops[1:]
			}
			start = end
		}
	}
}

// execRun executes one stretch of same-opcode instructions. Widths 1, 4
// (the default) and 8 take specializations that index one word or one
// fixed-size array per slot: an operand costs a single bounds check and
// its words are unrolled. Every other width takes execWide.
func (e *BatchEngine) execRun(op opcode, run []instr) {
	switch e.w {
	case 1:
		exec1(e.vals, op, run)
	case 4:
		exec4(slots[[4]logic.Word](e.vals), op, run)
	case 8:
		exec8(slots[[8]logic.Word](e.vals), op, run)
	default:
		execWide(e.vals, e.w, op, run)
	}
}

// slots views the arena as one W array per slot. The view aliases the
// arena's own contiguous words, so it reads and writes nothing else.
func slots[W [4]logic.Word | [8]logic.Word](arena []logic.Word) []W {
	var slot W
	return unsafe.Slice((*W)(unsafe.Pointer(&arena[0])), len(arena)/len(slot))
}

// exec1 runs one same-opcode stretch on 1-word slots: slot s is vals[s].
func exec1(vals []logic.Word, op opcode, run []instr) {
	switch op {
	case opBuf:
		for _, in := range run {
			vals[in.dst] = vals[in.a]
		}
	case opNot:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Not()
		}
	case opAnd2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].And(vals[in.b])
		}
	case opNand2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Nand(vals[in.b])
		}
	case opOr2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Or(vals[in.b])
		}
	case opNor2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Nor(vals[in.b])
		}
	case opXor2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Xor(vals[in.b])
		}
	case opXnor2:
		for _, in := range run {
			vals[in.dst] = vals[in.a].Xnor(vals[in.b])
		}
	}
}

// exec4 runs one same-opcode stretch on 4-word slots.
func exec4(vals [][4]logic.Word, op opcode, run []instr) {
	switch op {
	case opBuf:
		for _, in := range run {
			vals[in.dst] = vals[in.a]
		}
	case opNot:
		for _, in := range run {
			d, a := &vals[in.dst], &vals[in.a]
			d[0] = a[0].Not()
			d[1] = a[1].Not()
			d[2] = a[2].Not()
			d[3] = a[3].Not()
		}
	case opAnd2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].And(b[0])
			d[1] = a[1].And(b[1])
			d[2] = a[2].And(b[2])
			d[3] = a[3].And(b[3])
		}
	case opNand2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Nand(b[0])
			d[1] = a[1].Nand(b[1])
			d[2] = a[2].Nand(b[2])
			d[3] = a[3].Nand(b[3])
		}
	case opOr2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Or(b[0])
			d[1] = a[1].Or(b[1])
			d[2] = a[2].Or(b[2])
			d[3] = a[3].Or(b[3])
		}
	case opNor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Nor(b[0])
			d[1] = a[1].Nor(b[1])
			d[2] = a[2].Nor(b[2])
			d[3] = a[3].Nor(b[3])
		}
	case opXor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Xor(b[0])
			d[1] = a[1].Xor(b[1])
			d[2] = a[2].Xor(b[2])
			d[3] = a[3].Xor(b[3])
		}
	case opXnor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Xnor(b[0])
			d[1] = a[1].Xnor(b[1])
			d[2] = a[2].Xnor(b[2])
			d[3] = a[3].Xnor(b[3])
		}
	}
}

// exec8 runs one same-opcode stretch on 8-word slots.
func exec8(vals [][8]logic.Word, op opcode, run []instr) {
	switch op {
	case opBuf:
		for _, in := range run {
			vals[in.dst] = vals[in.a]
		}
	case opNot:
		for _, in := range run {
			d, a := &vals[in.dst], &vals[in.a]
			d[0] = a[0].Not()
			d[1] = a[1].Not()
			d[2] = a[2].Not()
			d[3] = a[3].Not()
			d[4] = a[4].Not()
			d[5] = a[5].Not()
			d[6] = a[6].Not()
			d[7] = a[7].Not()
		}
	case opAnd2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].And(b[0])
			d[1] = a[1].And(b[1])
			d[2] = a[2].And(b[2])
			d[3] = a[3].And(b[3])
			d[4] = a[4].And(b[4])
			d[5] = a[5].And(b[5])
			d[6] = a[6].And(b[6])
			d[7] = a[7].And(b[7])
		}
	case opNand2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Nand(b[0])
			d[1] = a[1].Nand(b[1])
			d[2] = a[2].Nand(b[2])
			d[3] = a[3].Nand(b[3])
			d[4] = a[4].Nand(b[4])
			d[5] = a[5].Nand(b[5])
			d[6] = a[6].Nand(b[6])
			d[7] = a[7].Nand(b[7])
		}
	case opOr2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Or(b[0])
			d[1] = a[1].Or(b[1])
			d[2] = a[2].Or(b[2])
			d[3] = a[3].Or(b[3])
			d[4] = a[4].Or(b[4])
			d[5] = a[5].Or(b[5])
			d[6] = a[6].Or(b[6])
			d[7] = a[7].Or(b[7])
		}
	case opNor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Nor(b[0])
			d[1] = a[1].Nor(b[1])
			d[2] = a[2].Nor(b[2])
			d[3] = a[3].Nor(b[3])
			d[4] = a[4].Nor(b[4])
			d[5] = a[5].Nor(b[5])
			d[6] = a[6].Nor(b[6])
			d[7] = a[7].Nor(b[7])
		}
	case opXor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Xor(b[0])
			d[1] = a[1].Xor(b[1])
			d[2] = a[2].Xor(b[2])
			d[3] = a[3].Xor(b[3])
			d[4] = a[4].Xor(b[4])
			d[5] = a[5].Xor(b[5])
			d[6] = a[6].Xor(b[6])
			d[7] = a[7].Xor(b[7])
		}
	case opXnor2:
		for _, in := range run {
			d, a, b := &vals[in.dst], &vals[in.a], &vals[in.b]
			d[0] = a[0].Xnor(b[0])
			d[1] = a[1].Xnor(b[1])
			d[2] = a[2].Xnor(b[2])
			d[3] = a[3].Xnor(b[3])
			d[4] = a[4].Xnor(b[4])
			d[5] = a[5].Xnor(b[5])
			d[6] = a[6].Xnor(b[6])
			d[7] = a[7].Xnor(b[7])
		}
	}
}

// execWide runs instructions of one opcode at any width: slot s
// occupies arena[s*w:(s+1)*w].
func execWide(arena []logic.Word, w int, op opcode, run []instr) {
	switch op {
	case opBuf:
		for _, in := range run {
			copy(arena[int(in.dst)*w:int(in.dst+1)*w], arena[int(in.a)*w:])
		}
	case opNot:
		for _, in := range run {
			d, a, _ := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Not()
			}
		}
	case opAnd2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].And(b[k])
			}
		}
	case opNand2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Nand(b[k])
			}
		}
	case opOr2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Or(b[k])
			}
		}
	case opNor2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Nor(b[k])
			}
		}
	case opXor2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Xor(b[k])
			}
		}
	case opXnor2:
		for _, in := range run {
			d, a, b := operands(arena, w, in)
			for k := range w {
				d[k] = a[k].Xnor(b[k])
			}
		}
	}
}

// operands returns the w-word value slices of in's destination and
// operands, each with length and capacity w so indexing below w needs
// no bounds checks.
func operands(vals []logic.Word, w int, in instr) (d, a, b []logic.Word) {
	di, ai, bi := int(in.dst)*w, int(in.a)*w, int(in.b)*w
	return vals[di : di+w : di+w], vals[ai : ai+w : ai+w], vals[bi : bi+w : bi+w]
}

// ClockFF latches the current D values into the flip-flops: branches
// of faulted D-pins are built first, and stuck flip-flop outputs are
// re-forced after the latch.
func (e *BatchEngine) ClockFF() {
	w := e.w
	e.apply(e.ops[e.latchFrom:])
	latch := e.code[len(e.p.instrs):]
	for i := range e.c.DFFs {
		copy(e.scratch[i*w:(i+1)*w], e.slot(int(latch[i].a)))
	}
	for i, ff := range e.c.DFFs {
		copy(e.slot(ff), e.scratch[i*w:(i+1)*w])
	}
	e.apply(e.ops[:e.ffEnd])
}

// Step applies one functional clock cycle: evaluate the combinational
// network, then latch the flip-flops.
func (e *BatchEngine) Step() {
	e.EvalComb()
	e.ClockFF()
}
