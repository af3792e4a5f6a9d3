package fsim

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// XRun is the all-X (no-scan) run of one sequence, kept to answer many
// scan tests (SI, seq) over the same sequence — the shape of Phase 1's
// scan-in selection, which replays T_0 from every candidate state.
//
// The cut rests on ternary monotonicity: every kernel op, every stuck-at
// merge and the latch are monotone, and any scan-in state refines the
// all-X state, so at every node and time the scan-in run's values refine
// the all-X run's. Hence every all-X detection is a detection from every
// scan-in state, and once every flip-flop (not only the observed ones)
// holds a binary value after some clock u in both the good machine and
// fault f's machine of the all-X run, the scan-in run equals the all-X
// run from then on: equal states under the same inputs evolve equally.
// DetectTest(si, seq, T) therefore detects exactly the all-X PO
// detections, plus f's detections within its first until[f] = u+1
// vectors, plus — when until[f] < len(seq) — the all-X run's final
// scan-out compare for f.
type XRun struct {
	s   *Simulator
	seq logic.Sequence
	det *fault.Set // PO detections of the all-X run
	// until[f] is the number of vectors a scan-in replay must run for f
	// (its sync point plus one); len(seq) when f's machine never
	// synchronized, its all-X pass did not finish, or f was not a target
	// of the run. so[f] records a definite difference at an observed
	// flip-flop after the last clock of the all-X run. Each entry is
	// written only by the pass carrying f, so workers need no merge.
	until []int32
	so    []bool
}

// RunX fault-simulates seq over targets (nil = every fault) without
// scan from the all-X power-up state, like Detect(seq, Options{Targets:
// targets}), and keeps what XRun.DetectTest needs to cut later scan-in
// replays of seq short. Faults outside targets keep until = len(seq):
// replays of them run the whole sequence, so the cut stays exact for
// any target set. Its passes carry the good machine in slot 0 and
// bypass the trace cache, as do the cut replays of DetectTest, so batch
// fault bi always sits in slot bi+1.
func (s *Simulator) RunX(seq logic.Sequence, targets *fault.Set) *XRun {
	n := len(s.faults)
	x := &XRun{
		s:     s,
		seq:   seq.Clone(),
		det:   fault.NewSet(n),
		until: make([]int32, n),
		so:    make([]bool, n),
	}
	for i := range x.until {
		x.until[i] = int32(len(seq))
	}
	s.run(x.seq, Options{Targets: targets}, x.det, runSpec{xrec: x})
	return x
}

// Detected returns the targets the all-X run detects: the same set as
// Detect(seq, Options{Targets: targets}). The set is owned by x; callers
// must not modify it.
func (x *XRun) Detected() *fault.Set { return x.det }

// DetectTest returns DetectTest(si, seq, targets) for x's sequence: the
// all-X detections among targets, plus the targets a scan-in replay
// detects, where each pass replays only up to the largest sync point of
// its faults (a nil target set means every fault).
func (x *XRun) DetectTest(si logic.Vector, targets *fault.Set) *fault.Set {
	detected := x.det.Clone()
	rest := targets
	if rest == nil {
		rest = fault.NewFullSet(len(x.until))
	} else {
		detected.IntersectWith(targets)
		rest = rest.Clone()
	}
	rest.SubtractWith(x.det)
	x.s.run(x.seq, Options{Init: si, ScanOut: true, Targets: rest}, detected, runSpec{xcut: x})
	return detected
}

// Horizon returns how many vectors a scan-in replay of seq runs for the
// targets the all-X run left undetected: the largest sync point over
// them (0 when all targets are all-X detected; nil means every fault).
func (x *XRun) Horizon(targets *fault.Set) int {
	h := 0
	for f, u := range x.until {
		if (targets == nil || targets.Has(f)) && !x.det.Has(f) {
			h = max(h, int(u))
		}
	}
	return h
}

// horizon returns how many vectors a cut pass over batch replays.
func (x *XRun) horizon(batch []int) int {
	h := 0
	for _, fi := range batch {
		h = max(h, int(x.until[fi]))
	}
	return h
}

// markSynced records u+1 as the sync point of every batch fault in
// unsynced whose machine, like the good machine in slot 0, holds a
// binary value in every flip-flop after clock u, and removes it from
// unsynced; bin is scratch. It reports whether any fault is left.
func (x *XRun) markSynced(eng *sim.BatchEngine, batch []int, u int, unsynced, bin []uint64) bool {
	for k := range bin {
		bin[k] = ^uint64(0)
	}
	for ff := range x.s.c.NumFFs() {
		for k, w := range eng.State(ff) {
			bin[k] &= w.Defined()
		}
		if bin[0]&1 == 0 {
			return true // the good machine is not binary yet
		}
	}
	left := false
	for k := range unsynced {
		for m := unsynced[k] & bin[k]; m != 0; m &= m - 1 {
			x.until[batch[k*64+bits.TrailingZeros64(m)-1]] = int32(u + 1)
		}
		unsynced[k] &^= bin[k]
		left = left || unsynced[k] != 0
	}
	return left
}

// markScanOut records which batch faults a scan-out after the last clock
// of the all-X run would detect; diff is scratch.
func (x *XRun) markScanOut(eng *sim.BatchEngine, batch []int, diff []uint64) {
	clear(diff)
	for j, ff := range x.s.observed {
		observe(eng.State(ff), nil, j, diff, nil)
	}
	for bi, fi := range batch {
		b := bi + 1
		x.so[fi] = diff[b>>6]&(1<<(uint(b)&63)) != 0
	}
}

// addScanOut adds to detected the batch faults not detected at a PO whose
// all-X final state differs at scan-out: a pass cut at its sync horizon
// ends in the all-X run's final state.
func (x *XRun) addScanOut(batch []int, detMask []uint64, detected *fault.Set) {
	for bi, fi := range batch {
		b := bi + 1
		if x.so[fi] && detMask[b>>6]&(1<<(uint(b)&63)) == 0 {
			detected.Add(fi)
		}
	}
}
