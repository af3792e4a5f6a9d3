package sim

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// BatchInjection forces a stuck value onto a signal in a subset of the
// 64*W slots of a BatchEngine. Pin == -1 forces the output of Node (a
// stem fault); Pin >= 0 forces the value Node reads from its Pin-th
// fanin. Mask holds one word per batch word (bit k of Mask[j] selects
// slot j*64+k); words beyond len(Mask) are unaffected.
type BatchInjection struct {
	Node  int
	Pin   int
	Stuck logic.Value
	Mask  []uint64

	// Set by SetInjections on its internal copies: the half-open range
	// [lo, hi) of nonzero Mask words and the broadcast stuck word, so the
	// patch pass touches only the words a fault actually lives in.
	lo, hi int
	fw     logic.Word
}

// Injection flag bits, per node.
const (
	flagOut uint8 = 1 << iota
	flagPin
)

// BatchEngine executes a compiled Program over W-word batches: 64*W
// parallel slots per signal instead of the interpreter Engine's 64. The
// value arena is allocated once (at the capacity width) and reused
// across passes; the hot loop sweeps the instruction stream one
// same-opcode run at a time, with no per-gate kind dispatch or
// fanin-slice walking.
//
// Injections are handled as a patch pass: every node evaluates through
// the fast instruction first, and the few nodes carrying injections are
// fixed immediately after their final instruction (re-evaluated with
// forced fanins for pin injections, masked-merged for output
// injections), preserving topological consistency for downstream
// reads. The three-valued semantics, fold order and injection
// application order match Engine exactly, so results are bit-identical
// slot for slot.
type BatchEngine struct {
	p   *Program
	c   *circuit.Circuit
	cap int // allocated width in words
	w   int // active width in words (<= cap)

	vals []logic.Word // value arena: slot s occupies vals[s*w : (s+1)*w]

	outInj  [][]BatchInjection // by node whose output is forced
	pinInj  [][]BatchInjection // by consumer node
	flags   []uint8            // per node
	touched []int
	srcInj  []int   // injected source nodes, forced at EvalComb start
	fixAt   []int32 // sorted instruction positions of injected gates

	scratch []logic.Word // per-DFF next-state buffer (nff * cap)
}

// NewBatch returns a BatchEngine executing p over w-word batches, with
// all signals X. The width is also the engine's capacity: SetWidth can
// later shrink (and re-grow) the active width without reallocating.
func NewBatch(p *Program, w int) *BatchEngine {
	if w < 1 {
		w = 1
	}
	c := p.c
	return &BatchEngine{
		p:       p,
		c:       c,
		cap:     w,
		w:       w,
		vals:    make([]logic.Word, p.nslots*w),
		outInj:  make([][]BatchInjection, c.NumNodes()),
		pinInj:  make([][]BatchInjection, c.NumNodes()),
		flags:   make([]uint8, c.NumNodes()),
		scratch: make([]logic.Word, c.NumFFs()*w),
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
	for _, n := range e.touched {
		// Truncate instead of nil: fault simulation re-injects the same
		// nodes pass after pass, so keeping per-node capacity warm avoids
		// an allocation per injection per pass.
		e.outInj[n] = e.outInj[n][:0]
		e.pinInj[n] = e.pinInj[n][:0]
		e.flags[n] = 0
	}
	e.touched = e.touched[:0]
	e.srcInj = e.srcInj[:0]
	e.fixAt = e.fixAt[:0]
}

// SetInjections installs the active fault injections, replacing any
// previous set. Callers must keep each Mask alive and unchanged until
// the next SetInjections or Reset.
func (e *BatchEngine) SetInjections(injs []BatchInjection) {
	e.clearInjections()
	for _, in := range injs {
		in.lo = 0
		in.hi = len(in.Mask)
		for in.lo < in.hi && in.Mask[in.lo] == 0 {
			in.lo++
		}
		for in.hi > in.lo && in.Mask[in.hi-1] == 0 {
			in.hi--
		}
		in.fw = logic.FromValue(in.Stuck)
		if e.flags[in.Node] == 0 {
			e.touched = append(e.touched, in.Node)
		}
		if in.Pin < 0 {
			e.outInj[in.Node] = append(e.outInj[in.Node], in)
			if e.flags[in.Node]&flagOut == 0 {
				e.flags[in.Node] |= flagOut
				if e.c.IsSource(in.Node) {
					e.srcInj = append(e.srcInj, in.Node)
				}
			}
		} else {
			e.pinInj[in.Node] = append(e.pinInj[in.Node], in)
			e.flags[in.Node] |= flagPin
		}
	}
	for _, n := range e.touched {
		if at := e.p.pos[n]; at >= 0 {
			e.fixAt = append(e.fixAt, at)
		}
	}
	slices.Sort(e.fixAt)
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
// state values: constants are driven, source-output injections applied,
// then the instruction stream executes with injected nodes patched in
// topological position.
func (e *BatchEngine) EvalComb() {
	for _, n := range e.p.const0 {
		e.slot(int(n)).Fill(logic.AllZero)
	}
	for _, n := range e.p.const1 {
		e.slot(int(n)).Fill(logic.AllOne)
	}
	for _, n := range e.srcInj {
		e.applyOut(n)
	}
	e.exec()
}

// exec runs the compiled program over the active width. This is the
// hottest loop in the repository: keep it allocation-free and
// branch-predictable. It switches once per same-opcode run (see
// Compile) and then loops over the run's operands, so the dispatch
// branch is not re-decided per instruction.
//
// An injected node is fixed right after its own instruction, not at the
// end of its run (a run can hold both a node and a consumer of it): the
// runs are split at the sorted instruction positions of injected gates.
func (e *BatchEngine) exec() {
	instrs := e.p.instrs
	fixAt := e.fixAt
	start := int32(0)
	for _, r := range e.p.runs {
		for start < r.end {
			end := r.end
			if len(fixAt) > 0 && fixAt[0] < end {
				end = fixAt[0] + 1
			}
			e.execRun(r.op, instrs[start:end])
			if len(fixAt) > 0 && fixAt[0] == end-1 {
				e.fix(int(instrs[end-1].dst))
				fixAt = fixAt[1:]
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

// fix patches an injected node right after its final instruction: a pin
// injection re-evaluates the whole gate with forced fanins (the slow
// path), an output injection merges the stuck value into the masked
// slots. Both orders match Engine.EvalComb.
func (e *BatchEngine) fix(n int) {
	if e.flags[n]&flagPin != 0 {
		e.evalForced(n)
	}
	if e.flags[n]&flagOut != 0 {
		e.applyOut(n)
	}
}

// applyOut merges node n's output injections into its value slots.
func (e *BatchEngine) applyOut(n int) {
	w := e.w
	d := e.vals[n*w : (n+1)*w : (n+1)*w]
	inj := e.outInj[n]
	for j := range inj {
		in := &inj[j]
		hi := in.hi
		if hi > w {
			hi = w
		}
		for i := in.lo; i < hi; i++ {
			if mask := in.Mask[i]; mask != 0 {
				d[i] = d[i].Merge(in.fw, mask)
			}
		}
	}
}

// evalForced patches gate n after its fast instruction: only the words
// whose slots carry a pin injection are re-folded (with forced fanins);
// every other word keeps the fast result, which is bit-identical to the
// unforced fold. A fault pins a handful of slots, so this costs O(pins)
// per flagged gate instead of O(width) — the patch pass stays constant
// as the batch widens.
func (e *BatchEngine) evalForced(n int) {
	w := e.w
	inj := e.pinInj[n]
	for j := range inj {
		in := &inj[j]
		hi := in.hi
		if hi > w {
			hi = w
		}
		for i := in.lo; i < hi; i++ {
			// A word shared by two injections is re-folded once per
			// injection; the second fold writes the same bits, so the
			// duplicate work is harmless (and rare).
			if in.Mask[i] != 0 {
				e.evalForcedWord(n, i)
			}
		}
	}
}

// faninForcedWord returns word i of the value node n reads from its
// p-th fanin, with pin injections on that word applied.
func (e *BatchEngine) faninForcedWord(n, p, i int) logic.Word {
	v := e.vals[e.c.Nodes[n].Fanin[p]*e.w+i]
	inj := e.pinInj[n]
	for j := range inj {
		if in := &inj[j]; in.Pin == p && i < len(in.Mask) && in.Mask[i] != 0 {
			v = v.Merge(in.fw, in.Mask[i])
		}
	}
	return v
}

// evalForcedWord re-evaluates word i of gate n reading every fanin
// through faninForcedWord, folding from the identity element exactly
// like Engine.evalGate.
func (e *BatchEngine) evalForcedWord(n, i int) {
	nd := &e.c.Nodes[n]
	var v logic.Word
	switch nd.Kind {
	case circuit.Not:
		v = e.faninForcedWord(n, 0, i).Not()
	case circuit.Buf:
		v = e.faninForcedWord(n, 0, i)
	case circuit.And, circuit.Nand:
		v = logic.AllOne
		for p := range nd.Fanin {
			v = v.And(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Nand {
			v = v.Not()
		}
	case circuit.Or, circuit.Nor:
		v = logic.AllZero
		for p := range nd.Fanin {
			v = v.Or(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Nor {
			v = v.Not()
		}
	case circuit.Xor, circuit.Xnor:
		v = logic.AllZero
		for p := range nd.Fanin {
			v = v.Xor(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Xnor {
			v = v.Not()
		}
	default:
		panic(fmt.Sprintf("sim: evalForced on non-gate node %d (%v)", n, nd.Kind))
	}
	e.vals[n*e.w+i] = v
}

// ClockFF latches the current D values (with DFF pin injections) into
// the flip-flops, applying output injections on DFF nodes.
func (e *BatchEngine) ClockFF() {
	w := e.w
	for i, ff := range e.c.DFFs {
		dst := e.scratch[i*w : (i+1)*w]
		copy(dst, e.slot(e.c.Nodes[ff].Fanin[0]))
		if e.flags[ff]&flagPin != 0 {
			inj := e.pinInj[ff]
			for j := range inj {
				in := &inj[j]
				hi := in.hi
				if hi > w {
					hi = w
				}
				for k := in.lo; k < hi; k++ {
					if mask := in.Mask[k]; mask != 0 {
						dst[k] = dst[k].Merge(in.fw, mask)
					}
				}
			}
		}
	}
	for i, ff := range e.c.DFFs {
		copy(e.slot(ff), e.scratch[i*w:(i+1)*w])
		if e.flags[ff]&flagOut != 0 {
			e.applyOut(ff)
		}
	}
}

// Step applies one functional clock cycle: evaluate the combinational
// network, then latch the flip-flops.
func (e *BatchEngine) Step() {
	e.EvalComb()
	e.ClockFF()
}
