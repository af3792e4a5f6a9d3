package fsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
)

// parallelFixture builds a circuit big enough to force several passes
// per run (a few hundred collapsed faults).
func parallelFixture(t testing.TB) (*Simulator, []fault.Fault, logic.Sequence, logic.Vector) {
	t.Helper()
	c := gen.MustGenerate(gen.Params{Name: "par", Seed: 7, PIs: 6, POs: 5, FFs: 16, Gates: 220})
	faults := fault.Collapse(c)
	if len(faults) <= 3*63 {
		t.Fatalf("fixture too small: %d faults", len(faults))
	}
	r := rand.New(rand.NewSource(3))
	seq := randomSeq(r, c.NumPIs(), 24)
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return New(c, faults), faults, seq, si
}

// TestWorkersEquivalence checks that the detected (and potential) sets
// are bit-identical for any worker count, with and without the
// good-machine trace cached, in plain and Potential mode, under full and
// partial scan. Detection is exact per fault, so partitioning the fault
// list over passes and workers must not change any result.
func TestWorkersEquivalence(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)

	type arm struct {
		det, pot *fault.Set
	}
	runArm := func(s *Simulator, potential bool) arm {
		a := arm{det: nil, pot: nil}
		opt := Options{Init: si, ScanOut: true}
		if potential {
			a.pot = fault.NewSet(len(faults))
			opt.Potential = a.pot
		}
		a.det = s.Detect(seq, opt)
		return a
	}

	// Reference: fresh simulator, serial, cold cache.
	ref := runArm(New(s.Circuit(), faults), false)
	refPot := runArm(New(s.Circuit(), faults), true)
	if !ref.det.Equal(refPot.det) {
		t.Fatal("Potential mode changed the hard detected set")
	}

	for _, n := range []int{1, 2, 3, 8} {
		s.SetWorkers(n)
		// Twice per count: the second run uses the memoized good trace
		// (64-fault passes) and must still match the cold 63-fault runs.
		for rep := 0; rep < 2; rep++ {
			got := runArm(s, false)
			if !got.det.Equal(ref.det) {
				t.Fatalf("workers=%d rep=%d: detected set differs from serial", n, rep)
			}
			gotPot := runArm(s, true)
			if !gotPot.det.Equal(ref.det) || !gotPot.pot.Equal(refPot.pot) {
				t.Fatalf("workers=%d rep=%d: Potential-mode sets differ from serial", n, rep)
			}
		}
	}
}

// TestWorkersEquivalencePartialScan repeats the worker sweep under a
// partial-scan chain: scan-in indexing, power-up X on unscanned
// flip-flops and the reduced scan-out observability all must survive the
// fan-out unchanged.
func TestWorkersEquivalencePartialScan(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "parp", Seed: 8, PIs: 6, POs: 5, FFs: 16, Gates: 220})
	faults := fault.Collapse(c)
	ffs := make([]int, c.NumFFs()/2)
	for i := range ffs {
		ffs[i] = 2 * i
	}
	ch, err := scan.NewChain(c.NumFFs(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	seq := randomSeq(r, c.NumPIs(), 24)
	si := make(logic.Vector, len(ffs))
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}

	ref := NewChain(c, faults, ch).DetectTest(si, seq, nil)
	s := NewChain(c, faults, ch)
	for _, n := range []int{1, 3, 8} {
		s.SetWorkers(n)
		for rep := 0; rep < 2; rep++ {
			if got := s.DetectTest(si, seq, nil); !got.Equal(ref) {
				t.Fatalf("partial scan workers=%d rep=%d: detected set differs", n, rep)
			}
		}
	}
}

// TestConcurrentUse exercises one shared Simulator from many goroutines
// (mixed Detect / DetectTest / Profile / DetectsAll traffic, plus cut
// replays of one shared XRun) and checks
// every call returns the same sets as a serial run. Run under -race this
// also proves the pool and trace cache are data-race free.
func TestConcurrentUse(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	s.SetWorkers(4)
	ref := New(s.Circuit(), faults).DetectTest(si, seq, nil)
	refNoScan := New(s.Circuit(), faults).Detect(seq, Options{Init: si})
	x := s.RunX(seq, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch g % 5 {
				case 0:
					if got := s.DetectTest(si, seq, nil); !got.Equal(ref) {
						errs <- "DetectTest result differs under concurrency"
					}
				case 1:
					if got := s.Detect(seq, Options{Init: si}); !got.Equal(refNoScan) {
						errs <- "Detect result differs under concurrency"
					}
				case 2:
					p := s.Profile(si, seq, nil)
					for f := 0; f < len(faults); f++ {
						if (p.PODetectTime(f) >= 0) != refNoScan.Has(f) {
							errs <- "Profile PO detections differ under concurrency"
							break
						}
					}
				case 3:
					if !s.AllDetected(si, seq, ref) {
						errs <- "AllDetected rejected the reference set"
					}
				case 4:
					if got := x.DetectTest(si, nil); !got.Equal(ref) {
						errs <- "XRun.DetectTest result differs under concurrency"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDetectsAllEarlyAbort checks the must-detect check over a
// multi-pass fault list: false as soon as any target is missed, true
// when the full list is detected, for serial and parallel runs.
func TestDetectsAllEarlyAbort(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	det := s.DetectTest(si, seq, nil)
	if det.Count() == 0 || det.Count() == len(faults) {
		t.Fatalf("fixture needs a mixed outcome, got %d/%d", det.Count(), len(faults))
	}
	undet := fault.NewFullSet(len(faults))
	undet.SubtractWith(det)
	for _, n := range []int{1, 4} {
		s.SetWorkers(n)
		if !s.AllDetected(si, seq, det) {
			t.Errorf("workers=%d: detected set must pass AllDetected", n)
		}
		// Any undetected fault in the must-set forces a false answer,
		// whichever pass it lands in.
		must := det.Clone()
		undet.ForEach(func(f int) { must.Add(f) })
		if s.AllDetected(si, seq, must) {
			t.Errorf("workers=%d: AllDetected must fail with undetected faults", n)
		}
	}
}

// TestTraceCacheClonesKey mutates the caller's scan-in vector and
// sequence after the runs that populate the trace cache; the cache keeps
// private clones, so later lookups with the original values must still
// hit the correct trace and produce correct results.
func TestTraceCacheClonesKey(t *testing.T) {
	s, _, seq, si := parallelFixture(t)
	ref := s.DetectTest(si, seq, nil)  // miss: marks the key seen
	got2 := s.DetectTest(si, seq, nil) // miss again: computes + caches the trace
	if tr, _ := s.cache.lookup(si, seq); tr == nil {
		t.Fatal("trace should be cached after a repeated multi-pass run")
	}
	siCopy, seqCopy := si.Clone(), seq.Clone()
	for i := range si {
		si[i] = logic.X
	}
	for u := range seq {
		for i := range seq[u] {
			seq[u][i] = logic.X
		}
	}
	got3 := s.DetectTest(siCopy, seqCopy, nil) // cache hit via cloned key
	if !got2.Equal(ref) || !got3.Equal(ref) {
		t.Error("cached-trace runs differ from the cold run")
	}
	if tr, _ := s.cache.lookup(siCopy, seqCopy); tr == nil {
		t.Error("mutating the caller's vectors must not invalidate the cached key")
	}
	if tr, _ := s.cache.lookup(si, seq); tr != nil {
		t.Error("the mutated key must not hit the cache")
	}
}

// TestTraceCacheRepeatGate checks the second-miss rule: a single
// multi-pass run does not pay for a trace, the second run of the same
// key does, and single-pass runs never do.
func TestTraceCacheRepeatGate(t *testing.T) {
	s, _, seq, si := parallelFixture(t)
	s.DetectTest(si, seq, nil)
	if tr, _ := s.cache.lookup(si, seq); tr != nil {
		t.Error("first run of a key must not compute a trace")
	}
	// The key is marked seen now, so the next run computes the trace.
	s.DetectTest(si, seq, nil)
	if tr, _ := s.cache.lookup(si, seq); tr == nil {
		t.Error("repeated multi-pass run must compute and cache the trace")
	}

	// Single-pass runs (few targets) never cache, repeated or not.
	small := samples.S27()
	sf := fault.Collapse(small)
	ss := New(small, sf)
	sseq := randomSeq(rand.New(rand.NewSource(6)), small.NumPIs(), 8)
	for i := 0; i < 3; i++ {
		ss.DetectTest(vec("000"), sseq, nil)
	}
	if tr, _ := ss.cache.lookup(vec("000"), sseq); tr != nil {
		t.Error("single-pass runs must not pay for a trace")
	}
}
