package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
)

// wideConstCircuit exercises compiler paths the generator never emits:
// constants, wide (fanin 3-5) gates of every kind, degenerate one-input
// gates, and a DFF loop through all of it.
func wideConstCircuit(t testing.TB) *circuit.Circuit {
	b := circuit.NewBuilder("wide")
	for i := 0; i < 5; i++ {
		b.Input(fmt.Sprintf("i%d", i))
	}
	b.Const("c0", false)
	b.Const("c1", true)
	b.Gate("a3", circuit.And, "i0", "i1", "i2")
	b.Gate("o4", circuit.Or, "i1", "i2", "i3", "i4")
	b.Gate("na5", circuit.Nand, "i0", "i1", "i2", "i3", "i4")
	b.Gate("no3", circuit.Nor, "a3", "o4", "c0")
	b.Gate("x4", circuit.Xor, "i0", "na5", "c1", "q0")
	b.Gate("xn3", circuit.Xnor, "x4", "no3", "i2")
	b.Gate("and1", circuit.And, "xn3")
	b.Gate("nand1", circuit.Nand, "xn3")
	b.Gate("xor1", circuit.Xor, "a3")
	b.Gate("n1", circuit.Not, "o4")
	b.Gate("b1", circuit.Buf, "na5")
	b.Gate("d0", circuit.Or, "and1", "nand1", "xor1", "n1", "b1")
	b.DFF("q0", "d0")
	b.Output("xn3")
	b.Output("x4")
	b.Output("d0")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kernelTestCircuits(t testing.TB) []*circuit.Circuit {
	return []*circuit.Circuit{
		samples.S27(),
		samples.Comb4(),
		samples.ShiftReg(9),
		wideConstCircuit(t),
		gen.MustGenerate(gen.Params{Name: "k1", Seed: 7, PIs: 6, POs: 4, FFs: 12, Gates: 160, MaxFanin: 6}),
		gen.MustGenerate(gen.Params{Name: "k2", Seed: 8, PIs: 4, POs: 3, FFs: 8, Gates: 90, XorWeight: 0.4}),
	}
}

// randInjections builds a random injection set over the batch: stems,
// gate input pins, DFF D-pins and stuck FF outputs, each over a random
// multi-word slot mask.
func randInjections(r *rand.Rand, c *circuit.Circuit, w, n int) []BatchInjection {
	injs := make([]BatchInjection, 0, n)
	for len(injs) < n {
		node := r.Intn(c.NumNodes())
		kind := c.Nodes[node].Kind
		if kind == circuit.Const0 || kind == circuit.Const1 {
			continue
		}
		pin := -1
		if len(c.Nodes[node].Fanin) > 0 && r.Intn(2) == 0 {
			pin = r.Intn(len(c.Nodes[node].Fanin))
		}
		mask := make([]uint64, w)
		for j := range mask {
			mask[j] = r.Uint64() & r.Uint64() // sparse-ish
		}
		injs = append(injs, BatchInjection{
			Node:  node,
			Pin:   pin,
			Stuck: logic.Value(r.Intn(2)),
			Mask:  mask,
		})
	}
	return injs
}

func randXVector(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		switch r.Intn(5) {
		case 0:
			v[i] = logic.X
		case 1, 2:
			v[i] = logic.Zero
		default:
			v[i] = logic.One
		}
	}
	return v
}

// engineForWord builds an interpreter Engine carrying word j of the
// batch: the same injections restricted to that word's mask.
func engineForWord(c *circuit.Circuit, injs []BatchInjection, j int) *Engine {
	e := New(c)
	var word []Injection
	for _, in := range injs {
		if j < len(in.Mask) && in.Mask[j] != 0 {
			word = append(word, Injection{Node: in.Node, Pin: in.Pin, Stuck: in.Stuck, Mask: in.Mask[j]})
		}
	}
	e.SetInjections(word)
	return e
}

// compareAll checks every node's batch word j against the reference
// engine's word.
func compareAll(t *testing.T, c *circuit.Circuit, be *BatchEngine, eng *Engine, j int, tag string) {
	t.Helper()
	for n := 0; n < c.NumNodes(); n++ {
		got := be.Val(n)[j]
		want := eng.Val(n)
		if got != want {
			t.Fatalf("%s: node %d (%s) word %d: kernel %+v, engine %+v",
				tag, n, c.Nodes[n].Name, j, got, want)
		}
	}
}

// checkRun drives be, which carries injs, and one interpreter Engine
// per word through cycles random X-bearing vectors from a random state,
// comparing every node after each evaluation and after each clock.
func checkRun(t *testing.T, be *BatchEngine, injs []BatchInjection, r *rand.Rand, cycles int, tag string) {
	t.Helper()
	c := be.Circuit()
	engines := make([]*Engine, be.Width())
	for j := range engines {
		engines[j] = engineForWord(c, injs, j)
	}
	st := randXVector(r, c.NumFFs())
	be.SetStateVector(st)
	for _, eng := range engines {
		eng.SetStateVector(st)
	}
	for u := 0; u < cycles; u++ {
		in := randXVector(r, c.NumPIs())
		be.SetPIVector(in)
		be.EvalComb()
		for j, eng := range engines {
			eng.SetPIVector(in)
			eng.EvalComb()
			compareAll(t, c, be, eng, j, fmt.Sprintf("%s u %d eval", tag, u))
		}
		be.ClockFF()
		for j, eng := range engines {
			eng.ClockFF()
			compareAll(t, c, be, eng, j, fmt.Sprintf("%s u %d clock", tag, u))
		}
	}
}

// TestKernelMatchesEngine is the node-exact differential: for every
// circuit, width and random (injections, X-bearing sequence), each word
// of the BatchEngine must equal an interpreter Engine run carrying that
// word's injections — after every combinational evaluation and after
// every clock.
func TestKernelMatchesEngine(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", c.Name, w), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(41*w) + int64(c.NumNodes())))
				be := NewBatch(p, w)
				for trial := 0; trial < 4; trial++ {
					be.Reset()
					injs := randInjections(r, c, w, 1+r.Intn(2*w))
					be.SetInjections(injs)
					checkRun(t, be, injs, r, 6, fmt.Sprintf("trial %d", trial))
				}
			})
		}
	}
}

// TestKernelNoInjectionsUniform checks that with broadcast inputs and no
// injections every word of every slot is uniform and dual-rail valid.
func TestKernelNoInjectionsUniform(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		be := NewBatch(p, 4)
		r := rand.New(rand.NewSource(3))
		be.SetStateVector(randXVector(r, c.NumFFs()))
		for u := 0; u < 4; u++ {
			be.SetPIVector(randXVector(r, c.NumPIs()))
			be.Step()
			for n := 0; n < c.NumNodes(); n++ {
				wv := be.Val(n)
				if !wv.Valid() {
					t.Fatalf("%s: node %d violates dual-rail invariant", c.Name, n)
				}
				for j := 1; j < len(wv); j++ {
					if wv[j] != wv[0] {
						t.Fatalf("%s: node %d word %d diverges from word 0 without injections", c.Name, n, j)
					}
				}
			}
		}
	}
}

// TestKernelSetWidth checks width switching reuses the arena and stays
// exact at the new width.
func TestKernelSetWidth(t *testing.T) {
	c := samples.S27()
	p := Compile(c)
	be := NewBatch(p, 8)
	if be.Cap() != 8 || be.Width() != 8 {
		t.Fatalf("cap/width = %d/%d", be.Cap(), be.Width())
	}
	for _, w := range []int{1, 3, 8, 2} {
		be.SetWidth(w)
		if be.Width() != w {
			t.Fatalf("width = %d, want %d", be.Width(), w)
		}
		r := rand.New(rand.NewSource(int64(w)))
		injs := randInjections(r, c, w, 3)
		be.SetInjections(injs)
		checkRun(t, be, injs, r, 1, fmt.Sprintf("w=%d", w))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetWidth beyond cap must panic")
		}
	}()
	be.SetWidth(9)
}

// TestKernelSetStateSlot checks per-slot state loading: a batch whose
// slots start from different states, loaded one slot at a time with
// SetStateSlot, must equal, slot for slot, separate passes that
// broadcast each state with SetStateVector — under the same injections
// (stuck flip-flops included, which re-force over the loaded values)
// and the same X-bearing inputs, at every node after every evaluation
// and clock.
func TestKernelSetStateSlot(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		if c.NumFFs() == 0 {
			continue
		}
		p := Compile(c)
		for _, w := range []int{1, 2, 4} {
			r := rand.New(rand.NewSource(int64(17*w) + int64(c.NumNodes())))
			states := make([]logic.Vector, 3)
			for s := range states {
				states[s] = randXVector(r, c.NumFFs())
			}
			pick := make([]int, 64*w)
			for k := range pick {
				pick[k] = r.Intn(len(states))
			}
			injs := randInjections(r, c, w, 1+r.Intn(2*w))
			be := NewBatch(p, w)
			be.SetInjections(injs)
			be.SetStateVector(randXVector(r, c.NumFFs())) // overwritten below
			for k, s := range pick {
				for ff, v := range states[s] {
					be.SetStateSlot(ff, k, v)
				}
			}
			refs := make([]*BatchEngine, len(states))
			for s, st := range states {
				refs[s] = NewBatch(p, w)
				refs[s].SetInjections(injs)
				refs[s].SetStateVector(st)
			}
			compare := func(tag string) {
				t.Helper()
				for n := 0; n < c.NumNodes(); n++ {
					for k, s := range pick {
						if got, want := be.Val(n).Get(k), refs[s].Val(n).Get(k); got != want {
							t.Fatalf("%s w%d %s: node %d slot %d: per-slot load %v, broadcast %v",
								c.Name, w, tag, n, k, got, want)
						}
					}
				}
			}
			for u := 0; u < 5; u++ {
				in := randXVector(r, c.NumPIs())
				for _, e := range append([]*BatchEngine{be}, refs...) {
					e.SetPIVector(in)
					e.EvalComb()
				}
				compare(fmt.Sprintf("u %d eval", u))
				for _, e := range append([]*BatchEngine{be}, refs...) {
					e.ClockFF()
				}
				compare(fmt.Sprintf("u %d clock", u))
			}
		}
	}
}

// TestCompileShape pins the decomposition: every gate lowers to one
// two-input instruction per fold step, and a purely narrow circuit
// needs no temporary slots.
func TestCompileShape(t *testing.T) {
	c := wideConstCircuit(t)
	p := Compile(c)
	if p.Circuit() != c {
		t.Fatal("Circuit() mismatch")
	}
	if got, want := p.NumInstrs(), len(c.EvalOrder())+foldSteps(c); got != want {
		t.Errorf("instrs = %d, want %d gates + %d fold steps", got, len(c.EvalOrder()), foldSteps(c))
	}
	narrow := Compile(samples.ShiftReg(4))
	if narrow.NumSlots() != samples.ShiftReg(4).NumNodes() {
		t.Errorf("narrow slots = %d, want node count", narrow.NumSlots())
	}
}

// foldSteps counts the extra instructions wide gates decompose into.
func foldSteps(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.EvalOrder() {
		if f := len(c.Nodes[g].Fanin); f > 2 {
			n += f - 2
		}
	}
	return n
}

// TestKernelCompileContract pins what the scheduled program promises
// the executor: every operand slot is written before it is read, every
// gate node exactly once; the runs are maximal same-opcode stretches
// covering the stream exactly once; the instruction count is gates plus
// fold steps (and, on the roster circuits, the recorded counts);
// temporary slots are recycled, so the program needs only as many as
// are ever live at once; and the injection map is sound (see
// checkInjectionMap).
func TestKernelCompileContract(t *testing.T) {
	circuits := kernelTestCircuits(t)
	instrs := map[string]int{"s1423": 953, "b04": 771, "s35932xl": 28439}
	for _, name := range []string{"s1423", "b04", "s35932xl"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %s", name)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		p := Compile(c)
		nn := c.NumNodes()
		if want, ok := instrs[c.Name]; ok && p.NumInstrs() != want {
			t.Errorf("%s: %d instructions, recorded %d", c.Name, p.NumInstrs(), want)
		}
		if got, want := len(p.instrs), len(c.EvalOrder())+foldSteps(c); got != want {
			t.Errorf("%s: %d instructions, want %d", c.Name, got, want)
		}
		start := int32(0)
		for k, r := range p.runs {
			if r.end <= start || (k > 0 && p.runs[k-1].op == r.op) {
				t.Fatalf("%s: run %d [%d, %d) %v is empty or not maximal", c.Name, k, start, r.end, r.op)
			}
			start = r.end
		}
		if int(start) != len(p.instrs) {
			t.Fatalf("%s: runs cover %d of %d instructions", c.Name, start, len(p.instrs))
		}

		written := make([]bool, p.nslots)
		for n := 0; n < nn; n++ {
			written[n] = c.IsSource(n)
		}
		gateWrites := make([]int, nn)
		live, peak := 0, 0 // temporaries holding an unread value
		start = 0
		for _, r := range p.runs {
			for _, in := range p.instrs[start:r.end] {
				reads := []int32{in.a, in.b}
				if r.op == opBuf || r.op == opNot {
					reads = reads[:1]
				}
				for _, x := range reads {
					if !written[x] {
						t.Fatalf("%s: slot %d read before it is written", c.Name, x)
					}
					if int(x) >= nn {
						written[x] = false // each temporary is read exactly once
						live--
					}
				}
				if int(in.dst) < nn {
					gateWrites[in.dst]++
					written[in.dst] = true
					continue
				}
				if written[in.dst] {
					t.Fatalf("%s: temporary slot %d overwritten before it is read", c.Name, in.dst)
				}
				written[in.dst] = true
				live++
				peak = max(peak, live)
			}
			start = r.end
		}
		for _, g := range c.EvalOrder() {
			if gateWrites[g] != 1 {
				t.Errorf("%s: gate %s written %d times", c.Name, c.Nodes[g].Name, gateWrites[g])
			}
		}
		if temps := p.nslots - nn; temps != peak {
			t.Errorf("%s: %d temporary slots for a peak of %d live temporaries", c.Name, temps, peak)
		}
		checkInjectionMap(t, p)
	}
	// The wide fixture has seven fold chains; recycling must share slots
	// among them.
	c := wideConstCircuit(t)
	if temps := Compile(c).NumSlots() - c.NumNodes(); temps >= foldSteps(c) {
		t.Errorf("wide: %d temporary slots for %d fold steps, want fewer", temps, foldSteps(c))
	}
}

// checkInjectionMap pins the compile output BatchEngine patches faults
// through. Every pin reference names an entry whose marked operands
// read that fanin: an instruction of the gate's own fold chain, or for
// a flip-flop its latch entry; a unary instruction is marked on both
// operands, and every operand reading a node is claimed by exactly one
// pin. Every gate's fix point lies in (pos, end of its run], with no
// reader of the gate before it and, short of the run end, a reader at
// it. Sources have no fix point.
func checkInjectionMap(t *testing.T, p *Program) {
	t.Helper()
	c := p.c
	nn := int32(c.NumNodes())
	ni := int32(len(p.instrs))
	// owner[i]: the gate instruction i computes part of, following each
	// fold temporary to its single reader (scanning backwards, the last
	// reader seen of a slot is the one after its write).
	owner := make([]int32, ni)
	tempOwner := make([]int32, p.nslots)
	for i := ni - 1; i >= 0; i-- {
		in := p.instrs[i]
		if owner[i] = in.dst; in.dst >= nn {
			owner[i] = tempOwner[in.dst]
		}
		for _, x := range []int32{in.a, in.b} {
			if x >= nn {
				tempOwner[x] = owner[i]
			}
		}
	}
	runEnd := make([]int32, ni)
	op := make([]opcode, ni)
	start := int32(0)
	for _, r := range p.runs {
		for i := start; i < r.end; i++ {
			runEnd[i], op[i] = r.end, r.op
		}
		start = r.end
	}
	claims := make(map[[2]int32]int) // (instruction, operand bit) -> pins naming it
	for n := int32(0); n < nn; n++ {
		fan := c.Nodes[n].Fanin
		if got := int(p.pinOff[n+1] - p.pinOff[n]); got != len(fan) {
			t.Fatalf("%s: node %d has %d pin references for %d fanins", c.Name, n, got, len(fan))
		}
		for k, f := range fan {
			ref := p.pins[p.pinOff[n]+int32(k)]
			i, bits := ref>>refShift, ref&(refA|refB)
			var in instr
			switch {
			case i >= ni:
				if c.Nodes[n].Kind != circuit.DFF || c.DFFs[i-ni] != int(n) {
					t.Fatalf("%s: node %d pin %d names latch entry %d", c.Name, n, k, i-ni)
				}
				in = p.latch[i-ni]
				if bits != refA|refB {
					t.Fatalf("%s: flip-flop %d latch reference marks operands %b", c.Name, n, bits)
				}
			case owner[i] != n:
				t.Fatalf("%s: node %d pin %d names instruction %d of gate %d", c.Name, n, k, i, owner[i])
			default:
				in = p.instrs[i]
				if unary := op[i] == opBuf || op[i] == opNot; bits == 0 || unary && bits != refA|refB {
					t.Fatalf("%s: node %d pin %d marks operands %b of a %v", c.Name, n, k, bits, op[i])
				}
				for _, b := range []int32{refA, refB} {
					if bits&b != 0 {
						claims[[2]int32{i, b}]++
					}
				}
			}
			if bits&refA != 0 && in.a != int32(f) || bits&refB != 0 && in.b != int32(f) {
				t.Fatalf("%s: node %d pin %d: marked operands of %+v do not read fanin %d", c.Name, n, k, in, f)
			}
		}
	}
	for i, in := range p.instrs {
		for _, o := range [][2]int32{{refA, in.a}, {refB, in.b}} {
			if n := claims[[2]int32{int32(i), o[0]}]; o[1] < nn && n != 1 {
				t.Fatalf("%s: operand %b of instruction %d reads node %d under %d pin references",
					c.Name, o[0], i, o[1], n)
			}
		}
	}
	for n := int32(0); n < nn; n++ {
		pos, fix := p.pos[n], p.fix[n]
		if c.IsSource(int(n)) {
			if fix != -1 {
				t.Fatalf("%s: source %d has fix point %d", c.Name, n, fix)
			}
			continue
		}
		if fix <= pos || fix > runEnd[pos] {
			t.Fatalf("%s: gate %d at %d has fix point %d outside (%d, %d]", c.Name, n, pos, fix, pos, runEnd[pos])
		}
		reads := func(i int32) bool { return p.instrs[i].a == n || p.instrs[i].b == n }
		for i := pos + 1; i < fix; i++ {
			if reads(i) {
				t.Fatalf("%s: gate %d read at %d, before its fix point %d", c.Name, n, i, fix)
			}
		}
		if fix < runEnd[pos] && !reads(fix) {
			t.Fatalf("%s: gate %d fix point %d neither reads it nor ends its run", c.Name, n, fix)
		}
	}
}

// patchCircuit is the fixture for single-site patching cases: stem s
// fans out to two gates and a flip-flop's D-pin, and g1 reads input a
// on both of its pins.
func patchCircuit(t testing.TB) *circuit.Circuit {
	b := circuit.NewBuilder("patch")
	b.Input("a")
	b.Input("b")
	b.Gate("s", circuit.Nand, "a", "b")
	b.Gate("g1", circuit.And, "a", "a")
	b.Gate("g2", circuit.Or, "s", "b")
	b.Gate("g3", circuit.Xor, "s", "q")
	b.DFF("q", "s")
	b.Output("g1")
	b.Output("g2")
	b.Output("g3")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// install hands be a copy of injs and scribbles over the copy's masks
// once SetInjections returns: the engine must not read them afterwards.
func install(be *BatchEngine, injs []BatchInjection) {
	cp := make([]BatchInjection, len(injs))
	for i, in := range injs {
		cp[i] = in
		cp[i].Mask = slices.Clone(in.Mask)
	}
	be.SetInjections(cp)
	for _, in := range cp {
		for j := range in.Mask {
			in.Mask[j] = ^uint64(0)
		}
	}
}

// TestKernelPatchReuse checks that installed patches (re-pointed
// operands, branch slots and the patch list) are exactly undone and
// rebuilt as an engine moves from one injection set to the next, and
// covers the site shapes that share branch slots or order their merges.
// Every case is compared node for node with the interpreter.
func TestKernelPatchReuse(t *testing.T) {
	k1 := kernelTestCircuits(t)[4]
	fix := patchCircuit(t)
	node := func(name string) int {
		n, ok := fix.NodeByName(name)
		if !ok {
			t.Fatalf("no node %s", name)
		}
		return n
	}
	for _, w := range []int{1, 2, 4} {
		r := rand.New(rand.NewSource(int64(w)))
		mask := func() []uint64 { // dense words, but about half of them empty
			m := make([]uint64, w)
			for j := range m {
				if r.Intn(2) == 0 {
					m[j] = r.Uint64()
				}
			}
			return m
		}
		inj := func(name string, pin int, stuck logic.Value, m []uint64) BatchInjection {
			return BatchInjection{Node: node(name), Pin: pin, Stuck: stuck, Mask: m}
		}

		t.Run(fmt.Sprintf("reset/w%d", w), func(t *testing.T) {
			p := Compile(k1)
			be := NewBatch(p, w)
			injs := randInjections(r, k1, w, 3*w)
			install(be, injs)
			checkRun(t, be, injs, r, 3, "injected")
			be.Reset()
			if !slices.Equal(be.code, slices.Concat(p.instrs, p.latch)) {
				t.Fatal("Reset left re-pointed operands in the stream")
			}
			checkRun(t, be, nil, r, 3, "after reset")
		})

		t.Run(fmt.Sprintf("back-to-back/w%d", w), func(t *testing.T) {
			be := NewBatch(Compile(k1), w)
			a := randInjections(r, k1, w, 2*w)
			b := randInjections(r, k1, w, 2*w)
			for k, injs := range [][]BatchInjection{a, b, a} {
				install(be, injs)
				checkRun(t, be, injs, r, 3, fmt.Sprintf("set %d", k))
			}
		})

		t.Run(fmt.Sprintf("branch-growth/w%d", w), func(t *testing.T) {
			be := NewBatch(Compile(k1), w)
			var injs []BatchInjection
			for _, g := range k1.EvalOrder() {
				for pin := range k1.Nodes[g].Fanin {
					injs = append(injs, BatchInjection{Node: g, Pin: pin, Stuck: logic.Value(r.Intn(2)), Mask: mask()})
				}
			}
			if len(injs) <= be.nbranch {
				t.Fatalf("%d pin sites do not exceed %d branch slots", len(injs), be.nbranch)
			}
			install(be, injs)
			if be.used != len(injs) || be.nbranch < len(injs) {
				t.Fatalf("%d branch slots used of %d for %d sites", be.used, be.nbranch, len(injs))
			}
			checkRun(t, be, injs, r, 3, "grown")
			again := randInjections(r, k1, w, 2*w)
			install(be, again)
			checkRun(t, be, again, r, 3, "after growth")
		})

		cases := []struct {
			name string
			injs []BatchInjection
		}{
			{"and-a-a-pin0", []BatchInjection{inj("g1", 0, logic.Zero, mask())}},
			{"and-a-a-pin1", []BatchInjection{inj("g1", 1, logic.One, mask())}},
			{"stem-out-and-branches", []BatchInjection{
				inj("g2", 0, logic.One, mask()),
				inj("s", -1, logic.Zero, mask()),
				inj("g3", 0, logic.Zero, mask()),
				inj("q", 0, logic.One, mask()),
			}},
			{"overlap", []BatchInjection{
				inj("g3", 0, logic.Zero, mask()),
				inj("s", -1, logic.One, mask()),
				inj("g3", 0, logic.One, mask()),
				inj("s", -1, logic.Zero, mask()),
				inj("q", 0, logic.X, mask()),
				inj("q", 0, logic.One, mask()),
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				be := NewBatch(Compile(fix), w)
				install(be, tc.injs)
				checkRun(t, be, tc.injs, r, 4, tc.name)
			})
		}
	}
}
