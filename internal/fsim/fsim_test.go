package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/sim"
)

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

// naiveDetect is an independent single-fault reference simulator: it runs
// the good machine and one faulty machine separately through the scalar
// path and applies the same detection criteria as the parallel engine.
func naiveDetect(c *circuit.Circuit, f fault.Fault, init logic.Vector, seq logic.Sequence, scanOut bool) bool {
	good := sim.RunSequence(c, init, seq)

	e := sim.New(c)
	e.SetInjections([]sim.Injection{f.Injection(^uint64(0))})
	if init == nil {
		init = logic.NewVector(c.NumFFs(), logic.X)
	}
	e.SetStateVector(init)
	var lastState logic.Vector
	for u, v := range seq {
		e.SetPIVector(v)
		e.EvalComb()
		for i := range c.POs {
			fv := e.PO(i).Get(0)
			gv := good.POs[u][i]
			if gv.IsBinary() && fv.IsBinary() && gv != fv {
				return true
			}
		}
		e.ClockFF()
		lastState = make(logic.Vector, c.NumFFs())
		for i := 0; i < c.NumFFs(); i++ {
			lastState[i] = e.State(i).Get(0)
		}
	}
	if scanOut && len(seq) > 0 {
		gs := good.Final()
		for i := range lastState {
			if gs[i].IsBinary() && lastState[i].IsBinary() && gs[i] != lastState[i] {
				return true
			}
		}
	}
	return false
}

func randomSeq(r *rand.Rand, n, l int) logic.Sequence {
	seq := make(logic.Sequence, l)
	for u := range seq {
		v := make(logic.Vector, n)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		seq[u] = v
	}
	return seq
}

func TestDetectMatchesNaiveS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		seq := randomSeq(r, c.NumPIs(), 8)
		var init logic.Vector
		scanOut := trial%2 == 0
		if trial%3 != 0 {
			init = make(logic.Vector, c.NumFFs())
			for i := range init {
				init[i] = logic.Value(r.Intn(2))
			}
		}
		got := s.Detect(seq, Options{Init: init, ScanOut: scanOut})
		for fi, f := range faults {
			want := naiveDetect(c, f, init, seq, scanOut)
			if got.Has(fi) != want {
				t.Errorf("trial %d fault %s: parallel=%v naive=%v (init=%v scanOut=%v)",
					trial, f.String(c), got.Has(fi), want, init, scanOut)
			}
		}
	}
}

func TestDetectToggleHandCases(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	faults := []fault.Fault{{Node: eni, Pin: -1, Stuck: logic.Zero}}
	s := New(c, faults)

	// SI=0, T=(1): PO shows pre-clock state (0 in both machines), so the
	// fault is caught only by scan-out.
	if s.Detect(logic.Sequence{vec("1")}, Options{Init: vec("0")}).Has(0) {
		t.Error("en s-a-0 must not be PO-detected by a single vector")
	}
	if !s.Detect(logic.Sequence{vec("1")}, Options{Init: vec("0"), ScanOut: true}).Has(0) {
		t.Error("en s-a-0 must be detected by scan-out after one toggle")
	}
	// SI=0, T=(1,0): at u=1 the good machine outputs 1, faulty 0.
	if !s.Detect(logic.Sequence{vec("1"), vec("0")}, Options{Init: vec("0")}).Has(0) {
		t.Error("en s-a-0 must be PO-detected at time 1")
	}
}

func TestDetectWithoutScanStartsUnknown(t *testing.T) {
	c := samples.Toggle()
	qi, _ := c.NodeByName("q")
	faults := []fault.Fault{{Node: qi, Pin: -1, Stuck: logic.One}}
	s := New(c, faults)
	// Without scan-in the good machine state is X: no definite
	// difference can appear, whatever the sequence.
	got := s.Detect(randomSeq(rand.New(rand.NewSource(1)), 1, 10), Options{ScanOut: true})
	if got.Has(0) {
		t.Error("q s-a-1 undetectable from all-X start in toggle")
	}
	// With scan-in of 0 it is immediately detectable at the output.
	got = s.Detect(logic.Sequence{vec("0")}, Options{Init: vec("0")})
	if !got.Has(0) {
		t.Error("q s-a-1 must be detected with scan")
	}
}

func TestDetectTargetsSubset(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	seq := randomSeq(rand.New(rand.NewSource(5)), c.NumPIs(), 10)
	full := s.Detect(seq, Options{Init: vec("000"), ScanOut: true})
	if full.Count() == 0 {
		t.Fatal("expected some detections")
	}
	// Restricting targets must return exactly the intersection.
	some := fault.NewSet(len(faults))
	for i := 0; i < len(faults); i += 2 {
		some.Add(i)
	}
	part := s.Detect(seq, Options{Init: vec("000"), ScanOut: true, Targets: some})
	want := full.Clone()
	want.IntersectWith(some)
	if !part.Equal(want) {
		t.Errorf("targeted detect = %v, want %v", part.Indices(), want.Indices())
	}
}

func TestDetectManyFaultsMultipleBatches(t *testing.T) {
	// ShiftReg(20) has >63 collapsed faults, more than one one-word pass
	// holds.
	c := samples.ShiftReg(20)
	faults := fault.Collapse(c)
	if len(faults) <= 63 {
		t.Skipf("need >63 faults, have %d", len(faults))
	}
	s := New(c, faults)
	r := rand.New(rand.NewSource(9))
	seq := randomSeq(r, c.NumPIs(), 30)
	init := make(logic.Vector, c.NumFFs())
	for i := range init {
		init[i] = logic.Value(r.Intn(2))
	}
	got := s.Detect(seq, Options{Init: init, ScanOut: true})
	for fi, f := range faults {
		want := naiveDetect(c, f, init, seq, true)
		if got.Has(fi) != want {
			t.Errorf("fault %s: parallel=%v naive=%v", f.String(c), got.Has(fi), want)
		}
	}
}

func TestAllDetected(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	faults := []fault.Fault{{Node: eni, Pin: -1, Stuck: logic.Zero}}
	s := New(c, faults)
	must := fault.FromIndices(1, []int{0})
	if !s.AllDetected(vec("0"), logic.Sequence{vec("1")}, must) {
		t.Error("scan test should detect the en fault")
	}
	if s.AllDetected(vec("0"), logic.Sequence{vec("0")}, must) {
		t.Error("en=0 vector cannot detect en s-a-0")
	}
}

func TestDetectEmptySequence(t *testing.T) {
	c := samples.S27()
	s := New(c, fault.Collapse(c))
	got := s.Detect(nil, Options{Init: vec("000"), ScanOut: true})
	if got.Count() != 0 {
		t.Error("empty sequence detects nothing (no clock, no capture)")
	}
}

func TestCoverage(t *testing.T) {
	set := fault.FromIndices(10, []int{0, 1, 2})
	if got := Coverage(set, 10); got != 0.3 {
		t.Errorf("Coverage = %v, want 0.3", got)
	}
	if Coverage(set, 0) != 0 {
		t.Error("Coverage with empty universe should be 0")
	}
}

func TestPotentialDetections(t *testing.T) {
	// y = sel ? q : a, with q an uninitialized flip-flop. Without scan,
	// q is X in both machines. With a=1, sel=0 the good machine drives
	// y=1 (definite). Under sel s-a-1 the faulty machine selects q=X:
	// good definite, faulty X — the definition of a potential detection.
	b := circuit.NewBuilder("pot")
	b.Input("a")
	b.Input("sel")
	b.DFF("q", "d")
	b.Gate("d", circuit.Buf, "a")
	b.Gate("nsel", circuit.Not, "sel")
	b.Gate("t0", circuit.And, "a", "nsel")
	b.Gate("t1", circuit.And, "q", "sel")
	b.Gate("y", circuit.Or, "t0", "t1")
	b.Output("y")
	c := b.MustBuild()
	seli, _ := c.NodeByName("sel")
	faults := []fault.Fault{{Node: seli, Pin: -1, Stuck: logic.One}}
	s := New(c, faults)

	pot := fault.NewSet(1)
	hard := s.Detect(logic.Sequence{vec("10")}, Options{Potential: pot})
	if hard.Has(0) {
		t.Error("sel s-a-1 must not be hard-detected (faulty output is X)")
	}
	if !pot.Has(0) {
		t.Error("sel s-a-1 must be potentially detected (good 1, faulty X)")
	}

	// With the flip-flop initialized by a preceding vector, the same
	// fault becomes a hard detection (q=1 vs a path... drive a=1 twice:
	// q becomes 1 in both machines, faulty y = q = 1 = good y, still
	// undetected; drive a=1 then a=0,sel=0: good y=0, faulty y=q=1).
	pot2 := fault.NewSet(1)
	hard2 := s.Detect(logic.Sequence{vec("10"), vec("00")}, Options{Potential: pot2})
	if !hard2.Has(0) {
		t.Error("after initialization the fault must be hard-detected")
	}
}

func TestPotentialNeverBlocksHardDetections(t *testing.T) {
	// Enabling Potential (which disables the early exit) must not change
	// the hard detected set.
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		seq := randomSeq(r, c.NumPIs(), 8)
		for u := range seq {
			seq[u][r.Intn(len(seq[u]))] = logic.X
		}
		var init logic.Vector
		if trial%2 == 0 {
			init = vec("01x")
		}
		plain := s.Detect(seq, Options{Init: init, ScanOut: true})
		pot := fault.NewSet(len(faults))
		withPot := s.Detect(seq, Options{Init: init, ScanOut: true, Potential: pot})
		if !plain.Equal(withPot) {
			t.Fatalf("trial %d: hard set changed when collecting potentials", trial)
		}
	}
}
