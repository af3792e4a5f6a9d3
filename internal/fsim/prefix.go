package fsim

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Prefix is the checkpoint of one scan test's prefix (SI, T), kept to
// answer many scan tests (SI, T·T') over the same prefix — the shape of
// a combination trial of [4], which appends every other test's sequence
// to one fixed test. For each fault it is filled for, it holds the
// outcome of the fault machine over (SI, T): detected at a primary
// output within T, or the machine's state after T's last clock.
//
// The continuation is exact: the test (SI, T·T') replays T verbatim from
// SI, so each fault machine detects within T exactly what the prefix
// run detects, and ends T in the same state; the rest of the test is T'
// applied to that state under the same injection. DetectsAllAfter
// therefore simulates T' alone, with each slot started from its fault's
// end state instead of the scan-in.
//
// End states are stored as sparse (flip-flop, value) diffs against the
// good machine's end state, which NewPrefix computes once. A Prefix
// fills lazily, a whole batch per pass; each fault's entry is written
// only by the pass carrying it, so the passes of one fill may fan out
// over the simulator's workers. A Prefix itself must not be used by
// concurrent calls.
type Prefix struct {
	s    *Simulator
	init logic.Vector
	seq  logic.Sequence
	good logic.Vector // the good machine's state after seq, every flip-flop

	filled *fault.Set  // faults with a known outcome
	det    *fault.Set  // filled faults detected at a PO within seq
	diff   [][]ffValue // diff[f]: where f's end state differs from good

	miss, rest, found *fault.Set // Fill and DetectsAllAfter scratch
}

// ffValue is one flip-flop (scan order) and its value.
type ffValue struct {
	ff int32
	v  logic.Value
}

// NewPrefix returns an empty checkpoint of the scan test (si, seq) and
// computes the good machine's state after seq. Fill and DetectsAllAfter
// fill it.
func (s *Simulator) NewPrefix(si logic.Vector, seq logic.Sequence) *Prefix {
	n := len(s.faults)
	p := &Prefix{
		s:      s,
		init:   si.Clone(),
		seq:    seq.Clone(),
		filled: fault.NewSet(n),
		det:    fault.NewSet(n),
		diff:   make([][]ffValue, n),
		miss:   fault.NewSet(n),
		rest:   fault.NewSet(n),
		found:  fault.NewSet(n),
	}
	w := s.acquire()
	p.good = w.goodState(p.init, p.seq)
	s.release(w)
	return p
}

// Fill simulates the prefix for the faults of targets it does not hold
// yet, recording each one's PO detection or end state.
func (p *Prefix) Fill(targets *fault.Set) {
	p.miss.CopyFrom(targets)
	p.miss.SubtractWith(p.filled)
	if p.miss.Count() == 0 {
		return
	}
	p.filled.UnionWith(p.miss)
	p.s.run(p.seq, Options{Init: p.init, Targets: p.miss}, p.det, runSpec{fill: p})
}

// DetectsAllAfter reports whether the scan test (SI, T·seq) detects every
// fault in must, where (SI, T) is p's prefix: exactly
// DetectsAll(T·seq, Options{Init: SI, ScanOut: true}, must), with the
// same early abort. It fills p for the faults it needs, drops those
// detected within the prefix and, when x (the RunX of seq over any
// target set, or nil) is given, those its all-X run detects, and
// simulates seq for the rest from their end states. With x, each pass
// also stops at its batch's all-X sync horizon: every state after the
// prefix refines the all-X state, so the argument of XRun applies
// unchanged.
func (s *Simulator) DetectsAllAfter(p *Prefix, seq logic.Sequence, x *XRun, must *fault.Set) bool {
	if must == nil || must.Count() == 0 {
		return true
	}
	var abort atomic.Bool
	s.detectAfter(p, seq, x, must, &abort)
	return !abort.Load() && p.found.ContainsAll(p.rest)
}

// detectAfter narrows p.rest to the faults of targets that neither the
// prefix nor x's all-X run detects, and collects into p.found those of
// them that (SI, T·seq) detects — all of them unless a non-nil abort
// fires, which turns the run into a must-detect check.
func (s *Simulator) detectAfter(p *Prefix, seq logic.Sequence, x *XRun, targets *fault.Set, abort *atomic.Bool) {
	if x != nil && len(x.seq) != len(seq) {
		panic("fsim: DetectsAllAfter with the X run of another sequence")
	}
	rest := p.rest
	rest.CopyFrom(targets)
	if x != nil {
		rest.SubtractWith(x.det)
	}
	p.Fill(rest)
	rest.SubtractWith(p.det)
	p.found.Clear()
	s.run(seq, Options{ScanOut: true, Targets: rest}, p.found, runSpec{abort: abort, from: p, xcut: x})
}

// goodState replays seq from init on a one-word pass of the worker's
// kernel with no injections and returns every flip-flop's final value.
func (w *worker) goodState(init logic.Vector, seq logic.Sequence) logic.Vector {
	s := w.s
	eng := w.kernel(1)
	eng.Reset()
	s.scanIn(eng, init)
	for _, vec := range seq {
		eng.SetPIVector(vec)
		eng.Step()
	}
	st := make(logic.Vector, s.c.NumFFs())
	for ff := range st {
		st[ff] = eng.State(ff)[0].Get(0)
	}
	return st
}

// load starts each batch fault's slot from its end state: the good end
// state in every slot, then each fault's diff patched into its own slot
// (fault bi of the batch sits in slot bi+1; slot 0 keeps the good
// machine).
func (p *Prefix) load(eng *sim.BatchEngine, batch []int) {
	eng.SetStateVector(p.good)
	for bi, fi := range batch {
		for _, d := range p.diff[fi] {
			eng.SetStateSlot(int(d.ff), bi+1, d.v)
		}
	}
}

// markEnd records, at the end of a prefix pass, the end state of every
// batch fault not detected at a PO (detMask) as its diff against the
// good end state.
func (p *Prefix) markEnd(eng *sim.BatchEngine, batch []int, batchMask, detMask []uint64) {
	for ff, gv := range p.good {
		g := logic.FromValue(gv)
		for k, w := range eng.State(ff) {
			d := (w.Zero ^ g.Zero) | (w.One ^ g.One)
			for m := d & batchMask[k] &^ detMask[k]; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				fi := batch[k*64+b-1]
				p.diff[fi] = append(p.diff[fi], ffValue{int32(ff), w.Get(uint(b))})
			}
		}
	}
}
