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
// same-opcode runs, and the slot geometry a BatchEngine needs to
// allocate its value arena. A Program is immutable after Compile and
// safe for concurrent use.
type Program struct {
	c      *circuit.Circuit
	instrs []instr
	runs   []opRun
	pos    []int32 // per node: index of the instruction writing it, -1 for sources
	nslots int     // NumNodes + compiler temporaries
	const0 []int32 // Const0 node slots, driven before every evaluation
	const1 []int32 // Const1 node slots
}

// Compile lowers c into a straight-line dual-rail program. The
// instruction stream evaluates every combinational node after its
// fanins; sources (PIs, DFF outputs, constants) are arena slots written
// by the BatchEngine before execution.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{c: c, nslots: c.NumNodes(), pos: make([]int32, c.NumNodes())}
	for i := range c.Nodes {
		p.pos[i] = -1
		switch c.Nodes[i].Kind {
		case circuit.Const0:
			p.const0 = append(p.const0, int32(i))
		case circuit.Const1:
			p.const1 = append(p.const1, int32(i))
		}
	}
	ops, ins, ntemp := lower(c)
	order := schedule(c.NumNodes(), ops, ins, ntemp)
	p.instrs = make([]instr, 0, len(ins))
	// Fold temporaries are renamed onto recycled arena slots: each is
	// read exactly once, so its slot is free again after that read.
	phys := make([]int32, ntemp)
	var free []int32
	nn := int32(c.NumNodes())
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
		p.instrs = append(p.instrs, in)
		p.runs[len(p.runs)-1].end = int32(len(p.instrs))
	}
	return p
}

// lower decomposes every gate of c, in topological order, into
// two-input instructions. Fold temporaries get unique virtual slots
// NumNodes+k, k < ntemp; unary instructions repeat a in b so every
// operand names a real slot.
func lower(c *circuit.Circuit) (ops []opcode, ins []instr, ntemp int) {
	emit := func(op opcode, dst, a, b int32) {
		ops = append(ops, op)
		ins = append(ins, instr{dst: dst, a: a, b: b})
	}
	for _, n := range c.EvalOrder() {
		nd := &c.Nodes[n]
		fan := nd.Fanin
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
			continue
		}
		cur := int32(fan[0])
		for i := 1; i < len(fan)-1; i++ {
			t := int32(c.NumNodes() + ntemp)
			ntemp++
			emit(fold, t, cur, int32(fan[i]))
			cur = t
		}
		emit(final, dst, cur, int32(fan[len(fan)-1]))
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
