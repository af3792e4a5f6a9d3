package fsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

// kernelDiffFixture builds a circuit, its collapsed faults, an
// X-bearing input sequence and a scan-in vector for the width sweep.
func kernelDiffFixture(t testing.TB, partial bool) (*Simulator, []fault.Fault, logic.Sequence, logic.Vector) {
	t.Helper()
	c := gen.MustGenerate(gen.Params{Name: "kd", Seed: 17, PIs: 6, POs: 5, FFs: 16, Gates: 260, MaxFanin: 5})
	faults := fault.Collapse(c)
	if len(faults) <= 64 {
		t.Fatalf("fixture too small: %d faults", len(faults))
	}
	r := rand.New(rand.NewSource(9))
	seq := make(logic.Sequence, 20)
	for u := range seq {
		seq[u] = make(logic.Vector, c.NumPIs())
		for i := range seq[u] {
			// Sprinkle X inputs: width invariance must hold on unknowns,
			// not just on 0/1.
			switch r.Intn(6) {
			case 0:
				seq[u][i] = logic.X
			case 1, 2:
				seq[u][i] = logic.Zero
			default:
				seq[u][i] = logic.One
			}
		}
	}
	if !partial {
		si := make(logic.Vector, c.NumFFs())
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		return New(c, faults), faults, seq, si
	}
	ffs := make([]int, c.NumFFs()/2)
	for i := range ffs {
		ffs[i] = 2 * i
	}
	ch, err := scan.NewChain(c.NumFFs(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	si := make(logic.Vector, len(ffs))
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return NewChain(c, faults, ch), faults, seq, si
}

// TestKernelWidthEquivalence checks width invariance at the fsim level:
// for full and partial scan, serial and parallel workers, plain /
// Potential / Profile / DetectsAll runs, every batch width must
// reproduce the one-word (SetBatchWords(1)) results bit for bit — with a
// cold cache and with the memoized good trace. Correctness against an
// independent simulator is the oracle package's job (its differential
// tests sweep the same widths against the scalar reference).
func TestKernelWidthEquivalence(t *testing.T) {
	for _, partial := range []bool{false, true} {
		name := "full"
		if partial {
			name = "partial"
		}
		t.Run(name, func(t *testing.T) {
			s, faults, seq, si := kernelDiffFixture(t, partial)

			// One-word reference.
			ref := New(s.Circuit(), faults)
			if partial {
				ref = NewChain(s.Circuit(), faults, mustChain(t, s))
			}
			ref.SetBatchWords(1)
			refPot := fault.NewSet(len(faults))
			refDet := ref.Detect(seq, Options{Init: si, ScanOut: true, Potential: refPot})
			refProf := ref.Profile(si, seq, nil)

			for _, words := range []int{1, 4, 8} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("w%d/workers%d", words, workers), func(t *testing.T) {
						s.SetBatchWords(words).SetWorkers(workers)
						// Twice: the second run replays against the memoized
						// good trace (one extra fault in slot 0).
						for rep := 0; rep < 2; rep++ {
							pot := fault.NewSet(len(faults))
							det := s.Detect(seq, Options{Init: si, ScanOut: true, Potential: pot})
							if !det.Equal(refDet) {
								t.Fatalf("rep %d: detected set differs from one-word passes", rep)
							}
							if !pot.Equal(refPot) {
								t.Fatalf("rep %d: potential set differs from one-word passes", rep)
							}
							if plain := s.DetectTest(si, seq, nil); !plain.Equal(refDet) {
								t.Fatalf("rep %d: plain detected set differs", rep)
							}
							prof := s.Profile(si, seq, nil)
							for f := range faults {
								if prof.PODetectTime(f) != refProf.PODetectTime(f) {
									t.Fatalf("rep %d fault %d: PO detect time %d != %d",
										rep, f, prof.PODetectTime(f), refProf.PODetectTime(f))
								}
								for u := 0; u < len(seq); u++ {
									if prof.ScanOutDetects(f, u) != refProf.ScanOutDetects(f, u) {
										t.Fatalf("rep %d fault %d u %d: scan-out detection differs", rep, f, u)
									}
								}
							}
							if !s.AllDetected(si, seq, refDet) {
								t.Fatalf("rep %d: AllDetected rejected the one-word detected set", rep)
							}
							undet := fault.NewFullSet(len(faults))
							undet.SubtractWith(refDet)
							if undet.Count() > 0 && s.AllDetected(si, seq, undet) {
								t.Fatalf("rep %d: AllDetected accepted undetected faults", rep)
							}
						}
					})
				}
			}
		})
	}
}

// mustChain rebuilds the scan chain of a partial-scan simulator.
func mustChain(t *testing.T, s *Simulator) *scan.Chain {
	t.Helper()
	ch, err := scan.NewChain(s.Circuit().NumFFs(), s.Chain())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestKernelTargetSubsets drives runs whose target sets shrink below one
// word: the adaptive width must narrow to one-word passes without
// changing any result (the fault-dropping path of the compaction loops).
func TestKernelTargetSubsets(t *testing.T) {
	s, faults, seq, si := kernelDiffFixture(t, false)
	s.SetBatchWords(8)
	ref := New(s.Circuit(), faults).SetBatchWords(1)
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		targets := fault.NewSet(len(faults))
		for targets.Count() < n {
			targets.Add(r.Intn(len(faults)))
		}
		got := s.DetectTest(si, seq, targets)
		want := ref.DetectTest(si, seq, targets)
		if !got.Equal(want) {
			t.Errorf("targets=%d: 8-word detected set differs from one-word passes", n)
		}
	}
}

// TestSetBatchWordsClamping pins the SetBatchWords contract.
func TestSetBatchWordsClamping(t *testing.T) {
	s, _, _, _ := kernelDiffFixture(t, false)
	if got := s.SetBatchWords(0).BatchWords(); got != defaultBatchWords {
		t.Errorf("SetBatchWords(0) = %d, want default %d", got, defaultBatchWords)
	}
	if got := s.SetBatchWords(-3).BatchWords(); got != defaultBatchWords {
		t.Errorf("SetBatchWords(-3) = %d, want default %d", got, defaultBatchWords)
	}
	if got := s.SetBatchWords(1).BatchWords(); got != 1 {
		t.Errorf("SetBatchWords(1) = %d", got)
	}
	if got := s.SetBatchWords(1 << 20).BatchWords(); got != maxBatchWords {
		t.Errorf("huge SetBatchWords = %d, want cap %d", got, maxBatchWords)
	}
}
