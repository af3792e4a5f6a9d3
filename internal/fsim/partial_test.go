package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
)

// deadEndPair builds a circuit with two write-only flip-flops qa and qb
// (their faults are observable only at scan-out) plus a live output.
func deadEndPair(tb testing.TB) (*circuit.Circuit, []fault.Fault, int, int) {
	tb.Helper()
	b := circuit.NewBuilder("pair")
	b.Input("a")
	b.Input("bb")
	b.DFF("qa", "da")
	b.DFF("qb", "db")
	b.Gate("da", circuit.Buf, "a")
	b.Gate("db", circuit.Buf, "bb")
	b.Gate("y", circuit.Or, "a", "bb")
	b.Output("y")
	c := b.MustBuild()
	qa, _ := c.NodeByName("qa")
	qb, _ := c.NodeByName("qb")
	faults := []fault.Fault{
		{Node: qa, Pin: -1, Stuck: logic.Zero},
		{Node: qb, Pin: -1, Stuck: logic.Zero},
	}
	return c, faults, 0, 1 // fault indices for qa, qb
}

func TestPartialScanObservesOnlyChainFFs(t *testing.T) {
	c, faults, fqa, fqb := deadEndPair(t)
	seq := logic.Sequence{vec("11")} // drives 1 into both D inputs

	// Full scan: both stuck-0 faults detected at scan-out.
	full := New(c, faults)
	got := full.DetectTest(vec("00"), seq, nil)
	if !got.Has(fqa) || !got.Has(fqb) {
		t.Fatal("full scan should detect both FF faults")
	}

	// Chain over qa only: qb's fault becomes unobservable.
	ch, err := scan.NewChain(c.NumFFs(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	part := NewChain(c, faults, ch)
	if part.Nsv() != 1 {
		t.Fatalf("Nsv = %d, want 1", part.Nsv())
	}
	got = part.DetectTest(vec("0"), seq, nil)
	if !got.Has(fqa) {
		t.Error("scanned FF fault must stay detectable")
	}
	if got.Has(fqb) {
		t.Error("unscanned FF fault must be invisible at scan-out")
	}
}

func TestPartialScanInIndexing(t *testing.T) {
	// Chain in reverse order over a 3-FF shift register: scan-in vector
	// position k must land in chain.FFs[k].
	c := samples.ShiftReg(3)
	ch, err := scan.NewChain(3, []int{2, 0}) // SI[0] -> q2, SI[1] -> q0
	if err != nil {
		t.Fatal(err)
	}
	s := NewChain(c, nil, ch)
	w := s.acquire()
	defer s.release(w)
	eng := w.kernel(1)
	s.scanIn(eng, vec("10"))
	if got := eng.State(2).Get(0); got != logic.One {
		t.Errorf("q2 = %v, want 1", got)
	}
	if got := eng.State(0).Get(0); got != logic.Zero {
		t.Errorf("q0 = %v, want 0", got)
	}
	if got := eng.State(1).Get(0); got != logic.X {
		t.Errorf("unscanned q1 = %v, want X", got)
	}
}

func TestPartialScanShortVectorLeavesX(t *testing.T) {
	c := samples.ShiftReg(3)
	ch, _ := scan.NewChain(3, []int{0, 1})
	s := NewChain(c, nil, ch)
	w := s.acquire()
	defer s.release(w)
	eng := w.kernel(1)
	s.scanIn(eng, vec("1")) // shorter than the chain
	if eng.State(0).Get(0) != logic.One {
		t.Error("chain position 0 not loaded")
	}
	if eng.State(1).Get(0) != logic.X {
		t.Error("missing scan-in position should stay X")
	}
}

func TestPartialScanCoverageNeverExceedsFull(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	seqs := make([]logic.Sequence, 6)
	r := rand.New(rand.NewSource(77))
	for i := range seqs {
		seqs[i] = randomSeq(r, c.NumPIs(), 6)
	}
	full := New(c, faults)
	ch, _ := scan.NewChain(3, []int{0, 2})
	part := NewChain(c, faults, ch)

	fullDet := fault.NewSet(len(faults))
	partDet := fault.NewSet(len(faults))
	for _, sq := range seqs {
		fullDet.UnionWith(full.DetectTest(vec("010"), sq, nil))
		partDet.UnionWith(part.DetectTest(vec("01"), sq, nil))
	}
	// The partial-scan scan-in of "01" into FFs {0,2} is a weaker
	// constraint set and a weaker observation set: with the remaining FF
	// starting X, everything partial scan detects, full scan (which can
	// at least match the X with some value... here we only check the
	// weaker, always-true direction) could detect with some scan-in. We
	// assert the scan-out observation subset property directly: the
	// partial run must not detect any fault whose only difference sits
	// in the unscanned flip-flop at scan-out time. Cheap proxy: partial
	// detections from the SAME runs with the unscanned FF X cannot
	// exceed full detections plus faults detected through POs.
	if partDet.Count() > fullDet.Count() {
		t.Errorf("partial scan detected more (%d) than full scan (%d)",
			partDet.Count(), fullDet.Count())
	}
}

func TestNsvFullScan(t *testing.T) {
	c := samples.S27()
	if got := New(c, nil).Nsv(); got != 3 {
		t.Errorf("full-scan Nsv = %d, want 3", got)
	}
	if got := NewChain(c, nil, nil).Nsv(); got != 3 {
		t.Errorf("nil-chain Nsv = %d, want 3", got)
	}
}

func TestPartialScanProfilePrefixConsistency(t *testing.T) {
	// The profile machinery must agree with direct prefix simulation
	// under a partial chain too.
	c := samples.S27()
	faults := fault.Collapse(c)
	ch, _ := scan.NewChain(3, []int{1, 2})
	s := NewChain(c, faults, ch)
	r := rand.New(rand.NewSource(31))
	seq := randomSeq(r, c.NumPIs(), 8)
	si := vec("10")
	p := s.Profile(si, seq, nil)
	for u := 0; u < len(seq); u++ {
		direct := s.DetectTest(si, seq[:u+1], nil)
		for fi := range faults {
			if got, want := p.DetectedByPrefix(fi, u), direct.Has(fi); got != want {
				t.Fatalf("fault %s prefix %d: profile=%v direct=%v",
					faults[fi].String(c), u, got, want)
			}
		}
	}
}
