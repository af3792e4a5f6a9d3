package sim

import (
	"fmt"

	"repro/internal/circuit"
)

// This file lowers a levelized circuit into a straight-line program of
// two-input dual-rail word operations — the compile step of the batch
// kernel in kernel.go. Compilation happens once per circuit; the
// resulting Program is immutable and shared by any number of
// BatchEngines (one per fault-simulation worker).
//
// Wide gates (fanin > 2) are decomposed at compile time into a
// left-fold chain through temporary slots, exactly mirroring the fold
// order of Engine.evalGateFast, so the three-valued result of every
// node is bit-identical to the interpreter's. Inverting kinds
// (NAND/NOR/XNOR) fold with the non-inverting opcode and invert on the
// final instruction. One-input gates degenerate to BUF/NOT, again
// matching the interpreter.
//
// The lowered stream is then list-scheduled: of the instructions whose
// operands are ready, those sharing the current opcode are emitted
// first, so the program falls into long runs of one opcode and the
// kernel dispatches once per run instead of once per instruction. Any
// topological order computes the same values, so scheduling is exact.
//
// Compile also records where a BatchEngine can patch faults in without
// extra instructions: per gate pin, the operand(s) reading that fanin,
// and per gate, the fix point where its output value may be forced or
// copied (see fixPoints).

// opcode identifies one dual-rail word operation of the compiled
// program. All binary opcodes take exactly two operands; wide gates are
// decomposed by the compiler.
type opcode uint8

const (
	opBuf opcode = iota
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	numOps
)

// instr is one straight-line program step: slot dst receives its run's
// opcode applied to slots a and b (the unary opcodes read only a; the
// compiler sets b = a).
// Slot indices address the kernel's value arena: slots [0, NumNodes)
// are circuit nodes, slots beyond that are compiler temporaries.
type instr struct {
	dst, a, b int32
}

// opRun is a maximal stretch of consecutive instructions sharing one
// opcode; it ends (exclusively) at instruction index end and starts
// where the previous run ended.
type opRun struct {
	op  opcode
	end int32
}

// Program is a compiled circuit: the scheduled instruction stream, its
// same-opcode runs, the slot geometry a BatchEngine needs to allocate
// its value arena, and the injection map (pin references and fix
// points) a BatchEngine patches faults through. A Program is immutable
// after Compile and safe for concurrent use.
type Program struct {
	c      *circuit.Circuit
	instrs []instr
	runs   []opRun
	latch  []instr // per flip-flop (scan order): a = b = its D fanin, read by ClockFF
	pos    []int32 // per node: index of the instruction writing it, -1 for sources
	fix    []int32 // per node: its fix point (see fixPoints), -1 for sources
	pinOff []int32 // per node: index of its pin 0 in pins (len NumNodes+1)
	pins   []int32 // per (node, pin): pinRef of the operand(s) reading that fanin
	nslots int     // NumNodes + compiler temporaries
	const0 []int32 // Const0 node slots, driven before every evaluation
	const1 []int32 // Const1 node slots
}

// A pinRef names where a gate or flip-flop reads one of its fanins:
// entry index i<<2 | b, where b has bit 0 set if operand a reads the
// fanin and bit 1 if operand b does. Indices below NumInstrs are
// stream instructions; index NumInstrs+k is latch[k], the D-pin read of
// flip-flop k.
const (
	refA     = 1
	refB     = 2
	refShift = 2
)

// Compile lowers c into a straight-line dual-rail program. The
// instruction stream evaluates every combinational node after its
// fanins; sources (PIs, DFF outputs, constants) are arena slots written
// by the BatchEngine before execution.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{
		c:      c,
		nslots: c.NumNodes(),
		pos:    make([]int32, c.NumNodes()),
		fix:    make([]int32, c.NumNodes()),
		pinOff: make([]int32, c.NumNodes()+1),
	}
	for i := range c.Nodes {
		p.pos[i], p.fix[i] = -1, -1
		p.pinOff[i+1] = p.pinOff[i] + int32(len(c.Nodes[i].Fanin))
		switch c.Nodes[i].Kind {
		case circuit.Const0:
			p.const0 = append(p.const0, int32(i))
		case circuit.Const1:
			p.const1 = append(p.const1, int32(i))
		}
	}
	p.pins = make([]int32, p.pinOff[c.NumNodes()])
	ops, ins, ntemp := lower(c, p.pinOff, p.pins)
	order := schedule(c.NumNodes(), ops, ins, ntemp)
	p.instrs = make([]instr, 0, len(ins))
	// Fold temporaries are renamed onto recycled arena slots: each is
	// read exactly once, so its slot is free again after that read.
	phys := make([]int32, ntemp)
	var free []int32
	nn := int32(c.NumNodes())
	at := make([]int32, len(ins)) // lowered index -> scheduled index
	for _, i := range order {
		in := ins[i]
		for _, x := range []*int32{&in.a, &in.b} {
			if *x >= nn {
				*x = phys[*x-nn]
				free = append(free, *x)
			}
		}
		if in.dst < nn {
			p.pos[in.dst] = int32(len(p.instrs))
		} else {
			v := in.dst - nn
			if k := len(free); k > 0 {
				phys[v], free = free[k-1], free[:k-1]
			} else {
				phys[v] = int32(p.nslots)
				p.nslots++
			}
			in.dst = phys[v]
		}
		if k := len(p.runs); k == 0 || p.runs[k-1].op != ops[i] {
			p.runs = append(p.runs, opRun{op: ops[i]})
		}
		at[i] = int32(len(p.instrs))
		p.instrs = append(p.instrs, in)
		p.runs[len(p.runs)-1].end = int32(len(p.instrs))
	}
	for _, g := range c.EvalOrder() {
		for k := p.pinOff[g]; k < p.pinOff[g+1]; k++ {
			r := p.pins[k]
			p.pins[k] = at[r>>refShift]<<refShift | r&(refA|refB)
		}
	}
	for k, ff := range c.DFFs {
		d := int32(c.Nodes[ff].Fanin[0])
		p.latch = append(p.latch, instr{dst: int32(ff), a: d, b: d})
		p.pins[p.pinOff[ff]] = int32(len(p.instrs)+k)<<refShift | refA | refB
	}
	p.fixPoints()
	return p
}

// fixPoints sets each gate's fix point: the stream position at which an
// injection on the gate's output, or a copy of it into a branch slot,
// is applied. That is the first instruction after the gate's own that
// reads it within the same run, or the end of the run when none does:
// no instruction between the gate and its fix point reads it, so the
// kernel only has to split a run where a patched value is consumed
// inside it.
func (p *Program) fixPoints() {
	nn := int32(len(p.pos))
	start := int32(0)
	for _, r := range p.runs {
		run := p.instrs[start:r.end]
		for i, in := range run {
			for _, x := range [2]int32{in.a, in.b} {
				if x < nn && p.pos[x] >= start && p.fix[x] < 0 {
					p.fix[x] = start + int32(i)
				}
			}
		}
		for _, in := range run {
			if in.dst < nn && p.fix[in.dst] < 0 {
				p.fix[in.dst] = r.end
			}
		}
		start = r.end
	}
}

// lower decomposes every gate of c, in topological order, into
// two-input instructions. Fold temporaries get unique virtual slots
// NumNodes+k, k < ntemp; unary instructions repeat a in b so every
// operand names a real slot. Each gate pin's pinRef goes to
// pins[pinOff[gate]+pin], indexing the lowered instructions.
func lower(c *circuit.Circuit, pinOff, pins []int32) (ops []opcode, ins []instr, ntemp int) {
	emit := func(op opcode, dst, a, b int32) {
		ops = append(ops, op)
		ins = append(ins, instr{dst: dst, a: a, b: b})
	}
	ref := func(bits int32) int32 { return int32(len(ins)-1)<<refShift | bits }
	for _, n := range c.EvalOrder() {
		nd := &c.Nodes[n]
		fan := nd.Fanin
		pin := pins[pinOff[n]:pinOff[n+1]]
		dst := int32(n)
		var fold, final opcode
		switch nd.Kind {
		case circuit.Not: // one fanin, like every Buf
			fold, final = opBuf, opNot
		case circuit.Buf:
			fold, final = opBuf, opBuf
		case circuit.And:
			fold, final = opAnd2, opAnd2
		case circuit.Nand:
			fold, final = opAnd2, opNand2
		case circuit.Or:
			fold, final = opOr2, opOr2
		case circuit.Nor:
			fold, final = opOr2, opNor2
		case circuit.Xor:
			fold, final = opXor2, opXor2
		case circuit.Xnor:
			fold, final = opXor2, opXnor2
		default:
			panic(fmt.Sprintf("sim: compile of non-gate node %d (%v)", n, nd.Kind))
		}
		if len(fan) == 1 {
			// NOT, BUF or a degenerate gate: the interpreter returns the
			// fanin value, inverted for the inverting kinds.
			op := opBuf
			if final != fold {
				op = opNot
			}
			emit(op, dst, int32(fan[0]), int32(fan[0]))
			pin[0] = ref(refA | refB)
			continue
		}
		// Step i-1 of the fold reads fanin i as operand b; step 0 also
		// reads fanin 0 as operand a.
		cur := int32(fan[0])
		for i := 1; i < len(fan); i++ {
			op, t := final, dst
			if i < len(fan)-1 {
				op, t = fold, int32(c.NumNodes()+ntemp)
				ntemp++
			}
			emit(op, t, cur, int32(fan[i]))
			pin[i] = ref(refB)
			cur = t
		}
		pin[0] = pin[1]&^refB | refA
	}
	return ops, ins, ntemp
}

// schedule returns a topological order of the lowered instructions that
// groups equal opcodes: it keeps emitting ready instructions of the
// current opcode, and when none is left switches to the opcode of the
// ready instruction with the longest path to a sink. Advancing the
// critical path first lets the shallow work pile up into long runs
// behind it. Ties and queue order follow the lowered order, so the
// schedule is deterministic.
func schedule(nnodes int, ops []opcode, ins []instr, ntemp int) []int32 {
	producer := make([]int32, nnodes+ntemp)
	for i := range producer {
		producer[i] = -1
	}
	for i, in := range ins {
		producer[in.dst] = int32(i)
	}
	indeg := make([]int32, len(ins))
	succ := make([][]int32, len(ins))
	for i, in := range ins {
		for _, x := range []int32{in.a, in.b} {
			if pr := producer[x]; pr >= 0 {
				succ[pr] = append(succ[pr], int32(i))
				indeg[i]++
			}
		}
	}
	// The lowered order is topological, so heights fill in backwards.
	height := make([]int32, len(ins))
	for i := len(ins) - 1; i >= 0; i-- {
		for _, j := range succ[i] {
			height[i] = max(height[i], height[j]+1)
		}
	}
	var ready [numOps][]int32
	for i := range ins {
		if indeg[i] == 0 {
			ready[ops[i]] = append(ready[ops[i]], int32(i))
		}
	}
	order := make([]int32, 0, len(ins))
	cur := opBuf
	for len(order) < len(ins) {
		if len(ready[cur]) == 0 {
			best := int32(-1)
			for op, q := range ready {
				for _, i := range q {
					if height[i] > best {
						best, cur = height[i], opcode(op)
					}
				}
			}
		}
		i := ready[cur][0]
		ready[cur] = ready[cur][1:]
		order = append(order, i)
		for _, j := range succ[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready[ops[j]] = append(ready[ops[j]], j)
			}
		}
	}
	return order
}

// Circuit returns the netlist the program was compiled from.
func (p *Program) Circuit() *circuit.Circuit { return p.c }

// NumInstrs returns the instruction count (decomposed wide gates emit
// one instruction per two-input fold step).
func (p *Program) NumInstrs() int { return len(p.instrs) }

// NumSlots returns the arena slot count (nodes plus temporaries).
func (p *Program) NumSlots() int { return p.nslots }
