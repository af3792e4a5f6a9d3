package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
)

// xrunCase is one circuit under one scan configuration for the X-run
// tests, with a binary sequence long enough for most fault machines to
// synchronize well before its end.
type xrunCase struct {
	name   string
	c      *circuit.Circuit
	faults []fault.Fault
	chain  *scan.Chain
	seq    logic.Sequence
}

func (xc xrunCase) sim() *Simulator { return NewChain(xc.c, xc.faults, xc.chain) }

// xrunCases covers roster circuits whose machines all synchronize within
// a few vectors (b01, b04 — the latter spans several passes) and ones
// where a few faults never do (s344), each under full scan and a
// half-length chain.
func xrunCases(t *testing.T) []xrunCase {
	t.Helper()
	var cases []xrunCase
	for i, name := range []string{"b01", "s344", "b04"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for k := 1; k < c.NumFFs(); k += 2 {
			half = append(half, k)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		seq := randomSeq(rand.New(rand.NewSource(int64(40+i))), c.NumPIs(), 30)
		cases = append(cases,
			xrunCase{name + "/full", c, faults, nil, seq},
			xrunCase{name + "/partial", c, faults, partial, seq})
	}
	return cases
}

// xrunScanIns returns scan-in vectors of length n: all 0, random binary,
// random with X entries, and nil (the all-X state itself).
func xrunScanIns(r *rand.Rand, n int) []logic.Vector {
	zero := logic.NewVector(n, logic.Zero)
	bin := make(logic.Vector, n)
	withX := make(logic.Vector, n)
	for i := 0; i < n; i++ {
		bin[i] = logic.Value(r.Intn(2))
		withX[i] = []logic.Value{logic.Zero, logic.One, logic.X}[r.Intn(3)]
	}
	return []logic.Vector{zero, bin, withX, nil}
}

// TestXRunDetectedMatchesDetect checks that RunX's all-X detections are
// Detect(seq, Options{})'s set bit for bit, at every width and worker
// count.
func TestXRunDetectedMatchesDetect(t *testing.T) {
	for _, xc := range xrunCases(t) {
		want := xc.sim().Detect(xc.seq, Options{})
		for _, words := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				s := xc.sim().SetBatchWords(words).SetWorkers(workers)
				if got := s.RunX(xc.seq, nil).Detected(); !got.Equal(want) {
					t.Errorf("%s words=%d workers=%d: RunX detects %d faults, Detect %d",
						xc.name, words, workers, got.Count(), want.Count())
				}
			}
		}
	}
}

// TestXRunDetectTestMatchesReplay checks that XRun.DetectTest equals the
// full scan-in replay DetectTest(si, seq, T) for scan-ins with and
// without X entries and for target sets that are nil, a random subset,
// or made of all-X-detected faults plus a few others — at every width
// and worker count, under full and partial scan. It also checks that
// the cut engages: the replays run fewer vectors than the full ones.
func TestXRunDetectTestMatchesReplay(t *testing.T) {
	for ci, xc := range xrunCases(t) {
		r := rand.New(rand.NewSource(int64(ci)))
		nsv := xc.sim().Nsv()
		sis := xrunScanIns(r, nsv)
		f0 := xc.sim().Detect(xc.seq, Options{})
		subset := fault.NewSet(len(xc.faults))
		withF0 := f0.Clone()
		for f := range xc.faults {
			if r.Intn(2) == 0 {
				subset.Add(f)
			}
			if r.Intn(8) == 0 {
				withF0.Add(f)
			}
		}
		targetSets := []*fault.Set{nil, subset, withF0}

		ref := xc.sim()
		want := make([][]*fault.Set, len(sis))
		for i, si := range sis {
			for _, tg := range targetSets {
				want[i] = append(want[i], ref.DetectTest(si, xc.seq, tg))
			}
		}
		full := ref.Stats().PassVectors

		for _, words := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				s := xc.sim().SetBatchWords(words).SetWorkers(workers)
				x := s.RunX(xc.seq, nil)
				s.ResetStats()
				for i, si := range sis {
					for ti, tg := range targetSets {
						if got := x.DetectTest(si, tg); !got.Equal(want[i][ti]) {
							t.Fatalf("%s words=%d workers=%d si#%d targets#%d: cut replay detects %v, full replay %v",
								xc.name, words, workers, i, ti, got.Indices(), want[i][ti].Indices())
						}
					}
				}
				if words == 4 && workers == 1 {
					h := x.Horizon(nil)
					if h <= 0 || h > len(xc.seq) {
						t.Errorf("%s: Horizon = %d, want in (0, %d]", xc.name, h, len(xc.seq))
					}
					if cut := s.Stats().PassVectors; cut >= full {
						t.Errorf("%s: cut replays ran %d pass-vectors, full replays %d", xc.name, cut, full)
					}
				}
			}
		}
	}
}

// TestXRunNeverSynchronizes uses a toggle flip-flop (D = XOR(Q, en)):
// from the all-X state Q stays X whatever en does, so no machine ever
// synchronizes. Every sync point must stay at the sequence length and
// every replay must run the whole sequence.
func TestXRunNeverSynchronizes(t *testing.T) {
	c := samples.Toggle()
	faults := fault.Collapse(c)
	seq := randomSeq(rand.New(rand.NewSource(5)), c.NumPIs(), 12)
	for _, words := range []int{1, 4} {
		s := New(c, faults).SetBatchWords(words)
		x := s.RunX(seq, nil)
		if x.Detected().Count() != 0 {
			t.Fatalf("words=%d: the all-X run of a toggle detects %v", words, x.Detected().Indices())
		}
		for f, u := range x.until {
			if int(u) != len(seq) {
				t.Fatalf("words=%d: fault %d synchronizes after %d vectors", words, f, u)
			}
		}
		if h := x.Horizon(nil); h != len(seq) {
			t.Fatalf("words=%d: Horizon = %d, want %d", words, h, len(seq))
		}
		for _, si := range []logic.Vector{vec("0"), vec("1"), vec("x")} {
			want := New(c, faults).DetectTest(si, seq, nil)
			s.ResetStats()
			got := x.DetectTest(si, nil)
			if !got.Equal(want) {
				t.Fatalf("words=%d si=%v: cut replay detects %v, full replay %v",
					words, si, got.Indices(), want.Indices())
			}
			// One pass carries every fault; with one left undetected it
			// cannot exit early, so it must replay the whole sequence.
			if st := s.Stats(); got.Count() < len(faults) && st.PassVectors != int64(len(seq)) {
				t.Fatalf("words=%d si=%v: the replay ran %d vectors, want %d",
					words, si, st.PassVectors, len(seq))
			}
		}
	}
}

// TestXRunEmptySequence pins the degenerate case: nothing synchronizes
// and the replay equals DetectTest on the empty sequence.
func TestXRunEmptySequence(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	x := New(c, faults).RunX(nil, nil)
	for _, si := range []logic.Vector{vec("000"), vec("101"), nil} {
		want := New(c, faults).DetectTest(si, nil, nil)
		if got := x.DetectTest(si, nil); !got.Equal(want) {
			t.Fatalf("si=%v: %v, want %v", si, got.Indices(), want.Indices())
		}
	}
}

// TestXRunSyncNeedsEveryFlipFlop pins that synchronization is judged on
// every flip-flop, not only the observed ones. Under a chain over p
// alone, p (D = a) is binary after one clock of the all-X run, while the
// unscanned q (D = OR(p, q)) stays X as long as a = 0. Scanning in p = 1
// latches q = 1, so the scan-in run leaves the all-X run's trajectory for
// good and q's faults show at the output only after the first clock.
func TestXRunSyncNeedsEveryFlipFlop(t *testing.T) {
	b := circuit.NewBuilder("latch")
	b.Input("a")
	b.Output("y")
	b.DFF("p", "a")
	b.DFF("q", "dq")
	b.Gate("dq", circuit.Or, "p", "q")
	b.Gate("y", circuit.Buf, "q")
	c := b.MustBuild()
	faults := fault.Collapse(c)
	ch, err := scan.NewChain(c.NumFFs(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	seq := logic.Sequence{vec("0"), vec("0"), vec("0"), vec("0")}
	x := NewChain(c, faults, ch).RunX(seq, nil)
	want := NewChain(c, faults, ch).DetectTest(vec("1"), seq, nil)
	if want.Count() == 0 {
		t.Fatal("fixture detects nothing from p = 1")
	}
	if got := x.DetectTest(vec("1"), nil); !got.Equal(want) {
		t.Fatalf("cut replay detects %v, full replay %v", got.Indices(), want.Indices())
	}
}
