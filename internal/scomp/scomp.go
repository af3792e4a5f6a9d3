// Package scomp implements the static test compaction procedure of
// Pomeranz & Reddy [4] ("Static Test Compaction for Scan-Based Designs
// to Reduce Test Application Time", ATS 1998): repeatedly combine pairs
// of scan tests
//
//	τ_i = (SI_i, T_i), τ_j = (SI_j, T_j)  →  τ_ij = (SI_i, T_i · T_j)
//
// which removes one scan-out/scan-in operation (N_SV clock cycles), and
// accept the combination iff the fault coverage of the whole test set is
// not reduced. The procedure stops when no pair can be combined.
//
// Coverage preservation is checked locally: combining τ_i and τ_j can
// only lose faults whose sole detectors in the current set are τ_i or
// τ_j; the combination is accepted iff one fault simulation shows the
// combined test detects all of them.
//
// The engine keeps a detection ledger (fsim.Ledger): each live test
// carries the Record of its detections, and a combination trial starts
// from the union of the two tests' ledger signatures instead of a cold
// re-grade. The key carry-over: the combined test replays the T_i
// prefix verbatim from the same scan-in state, so every PO detection
// recorded for τ_i persists in τ_ij unchanged — only the risk faults
// without such a detection (scan-out-only, or detected solely by τ_j)
// need simulation, and a trial whose risk set is fully carried commits
// with no simulation at all. Accepted combinations refresh the ledger
// row from the trial's own records.
//
// A simulated trial replays only what differs between trials. The
// outer τ_i changes only on an accept, so its prefix (SI_i, T_i) is
// simulated once into an fsim.Prefix checkpoint that holds each fault's
// state after T_i, and every trial (i, j) simulates T_j alone from it.
// A long τ_j (minXRunLen vectors or more) also keeps its all-X run
// (fsim.RunX), which stops each trial's T_j replay for a fault once
// that run has every flip-flop binary in both the good machine and the
// fault's machine. Both cuts are exact (DESIGN.md §8). The checkpoint
// lives while i stays the outer test and is dropped when i advances or
// τ_i changes; an all-X run lives until τ_j changes or dies.
//
// The accepted combinations and the output sets are pinned by golden
// files frozen from the retired pre-ledger engine (ledger_test.go) and
// re-checked against the reference simulator (oracle_test.go).
package scomp

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Options configures the combining loop.
type Options struct {
	// MaxRounds bounds the number of full passes over all test pairs
	// (0 = no bound; the procedure runs to its natural fixpoint).
	MaxRounds int

	// TransferLen enables the improvement of [7] ("Reducing Test
	// Application Time for Full Scan Circuits by the Addition of
	// Transfer Sequences", ATS 2000): when the direct combination of
	// τ_i and τ_j fails, a transfer sequence X of at most TransferLen
	// functional vectors is synthesized to steer the state reached after
	// T_i toward SI_j, and the combination (SI_i, T_i·X·T_j) is tried
	// instead. Profitable whenever len(X) < N_SV, since the combination
	// removes one scan operation. 0 disables transfer sequences (the
	// plain [4] procedure the paper uses).
	TransferLen int
	// TransferCandidates is the number of candidate vectors evaluated
	// per transfer step (0 = default 8).
	TransferCandidates int
	// Seed drives transfer-candidate generation.
	Seed int64

	// InitialRecords optionally seeds the ledger rows of the input tests
	// (index-aligned with ts.Tests; nil entries are graded normally).
	// Each record must be the exact full-fault-list Record of its test —
	// core passes the τ_seq grading it already paid for.
	InitialRecords []*fsim.Record
}

// Stats describes one compaction run.
type Stats struct {
	Combined         int // accepted pair combinations
	TransferCombined int // combinations accepted only thanks to a transfer sequence
	TransferVectors  int // total transfer vectors inserted
	Attempts         int // candidate trials
	Rounds           int // full passes over the pair space
	ShortCircuits    int // trials committed without any simulation (risk fully carried by the ledger)
	FaultsSimulated  int // total fault slots across all trial/accept simulations
}

// Add accumulates o into s (used by core to aggregate per-phase stats).
func (s *Stats) Add(o Stats) {
	s.Combined += o.Combined
	s.TransferCombined += o.TransferCombined
	s.TransferVectors += o.TransferVectors
	s.Attempts += o.Attempts
	s.Rounds += o.Rounds
	s.ShortCircuits += o.ShortCircuits
	s.FaultsSimulated += o.FaultsSimulated
}

// Compact runs the procedure of [4] on ts and returns the compacted set.
// The input set is not modified. Faults outside the union coverage of ts
// play no role.
func Compact(s *fsim.Simulator, ts *scan.Set, opt Options) (*scan.Set, Stats) {
	out, _, st := CompactWithLedger(s, ts, opt)
	return out, st
}

// CompactWithLedger is Compact that additionally returns the ledger of
// the output set, row-aligned with the returned tests — each row is the
// exact detection record of its test over the faults the engine
// credited it with (at least the test's contribution to the union
// coverage). core's Phase 4 consults it to skip re-grading tests whose
// detections are already pinned down.
func CompactWithLedger(s *fsim.Simulator, ts *scan.Set, opt Options) (*scan.Set, *fsim.Ledger, Stats) {
	var st Stats
	n := len(ts.Tests)
	nf := s.NumFaults()
	tests := make([]scan.Test, n)
	led := fsim.NewLedger(nf)
	for i, t := range ts.Tests {
		tests[i] = t.Clone()
		if i < len(opt.InitialRecords) && opt.InitialRecords[i] != nil {
			led.Append(opt.InitialRecords[i].Clone())
		} else {
			led.Append(s.RecordTest(t.SI, t.Seq, nil))
		}
	}
	if n <= 1 {
		return scan.NewSet(tests...), led, st
	}
	if max := s.Nsv() - 1; opt.TransferLen > max {
		// Longer transfers than N_SV-1 cannot be profitable: the scan
		// operation they replace costs N_SV cycles.
		opt.TransferLen = max
	}
	var r *rand.Rand
	if opt.TransferLen > 0 {
		r = rand.New(rand.NewSource(opt.Seed))
	}
	count := led.Counts()

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	// Fault dropping: a fault can be at risk for some pair only while
	// its detection count is 1 or 2 (count - [τ_i detects] - [τ_j
	// detects] must reach 0). Bucketing those faults once per accepted
	// combination turns the per-pair risk construction into a handful of
	// word operations:
	//
	//	risk = (C1 ∩ (d_i ∪ d_j)) ∪ (C2 ∩ d_i ∩ d_j)
	//
	// Multiply-detected faults drop out of every candidate simulation
	// until combinations remove enough of their detectors.
	c1, c2 := fault.NewSet(nf), fault.NewSet(nf)
	rebuckets := func() {
		c1.Clear()
		c2.Clear()
		for f, cnt := range count {
			switch cnt {
			case 1:
				c1.Add(f)
			case 2:
				c2.Add(f)
			}
		}
	}
	rebuckets()

	// The per-trial sets are reused across the (often ~100k) attempts;
	// allocating fresh nf-bit sets per attempt showed up on large
	// circuits. risk holds the faults whose sole detectors are τ_i or
	// τ_j; mustSim is risk minus the PO detections carried from τ_i's
	// row.
	risk, mustSim, tmp := fault.NewSet(nf), fault.NewSet(nf), fault.NewSet(nf)
	trialRisk := func(i, j int) {
		di, dj := led.Row(i).Detected(), led.Row(j).Detected()
		risk.CopyFrom(c2)
		risk.IntersectWith(di)
		risk.IntersectWith(dj)
		tmp.CopyFrom(di)
		tmp.UnionWith(dj)
		tmp.IntersectWith(c1)
		risk.UnionWith(tmp)
		// Carry-over: the combined test replays the T_i prefix verbatim,
		// so every PO detection in τ_i's row persists — only the
		// remainder of the risk set needs a must-detect simulation.
		rowi := led.Row(i)
		mustSim.CopyFrom(risk)
		risk.ForEach(func(f int) {
			if rowi.PODetected(f) {
				mustSim.Remove(f)
			}
		})
	}

	// Trial checkpoints (see DESIGN.md §8): pre is the prefix (SI_i, T_i)
	// of the current outer test, created on its first simulated trial and
	// dropped when i advances or τ_i changes; xr[j] is the all-X run of a
	// long τ_j, built on first use and dropped when τ_j changes or dies.
	var pre *fsim.Prefix
	xr := make([]*fsim.XRun, n)

	// accept replaces τ_i with the combination and kills τ_j, refreshing
	// the ledger row: PO detections of the old τ_i carry over verbatim,
	// the trial's must-detect record covers the simulated risk faults,
	// and one targeted pass covers the not-at-risk remainder of the
	// union that the prefix does not already pin down.
	accept := func(i, j int, combined scan.Test, recMust *fsim.Record) {
		rowi := led.Row(i)
		rest := rowi.Detected().Clone()
		rest.UnionWith(led.Row(j).Detected())
		rest.SubtractWith(risk)
		restSim := rest.Clone()
		rest.ForEach(func(f int) {
			if rowi.PODetected(f) {
				restSim.Remove(f)
			}
		})
		st.FaultsSimulated += restSim.Count()
		recRest := s.Record(combined.Seq,
			fsim.Options{Init: combined.SI, ScanOut: true, Targets: restSim})

		newRec := rowi.PrefixCarry(len(combined.Seq))
		if recMust != nil {
			newRec.Merge(recMust)
		}
		newRec.Merge(recRest)
		led.Set(i, newRec)
		led.Drop(j)
		rebuckets()
		tests[i] = combined
		alive[j] = false
		pre, xr[i], xr[j] = nil, nil, nil
		st.Combined++
	}

	// trial reports whether (SI_i, T_i·T_j) detects every fault of
	// mustSim, simulating T_j alone from the prefix checkpoint.
	trial := func(i, j int) bool {
		if pre == nil {
			// Fill the checkpoint with every fault some j could put into
			// mustSim: risk ⊆ C1 ∪ (C2 ∩ d_i), minus the carried PO
			// detections of τ_i.
			pre = s.NewPrefix(tests[i].SI, tests[i].Seq)
			rowi := led.Row(i)
			tmp.CopyFrom(c2)
			tmp.IntersectWith(rowi.Detected())
			tmp.UnionWith(c1)
			tmp.ForEach(func(f int) {
				if rowi.PODetected(f) {
					tmp.Remove(f)
				}
			})
			pre.Fill(tmp)
		}
		if xr[j] == nil && len(tests[j].Seq) >= minXRunLen {
			tmp.CopyFrom(c2)
			tmp.IntersectWith(led.Row(j).Detected())
			tmp.UnionWith(c1)
			xr[j] = s.RunX(tests[j].Seq, tmp)
		}
		return s.DetectsAllAfter(pre, tests[j].Seq, xr[j], mustSim)
	}

	for {
		st.Rounds++
		changed := false
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			pre = nil
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				trialRisk(i, j)
				st.Attempts++
				var combined scan.Test
				var recMust *fsim.Record
				hit := false
				switch {
				case mustSim.Count() == 0:
					// The ledger proves the trial accepted.
					st.ShortCircuits++
					combined = combine(tests[i], nil, tests[j])
					hit = true
				case trial(i, j):
					// The trial check is allocation-free (almost all
					// trials are rejected); re-simulate the must set once,
					// now that the combination commits, to rebuild the
					// ledger row. The check is exact, so this cannot fail.
					st.FaultsSimulated += 2 * mustSim.Count()
					combined = combine(tests[i], nil, tests[j])
					recMust, _ = s.RecordMust(combined.Seq,
						fsim.Options{Init: combined.SI, ScanOut: true}, mustSim)
					hit = true
				default:
					st.FaultsSimulated += mustSim.Count()
					if opt.TransferLen <= 0 {
						break
					}
					// [7]: steer the post-T_i state toward SI_j with a
					// short transfer sequence and retry. The T_i prefix is
					// intact, so the carried PO detections still stand and
					// mustSim is unchanged.
					xfer := transferSequence(s, tests[i], tests[j].SI, opt, r)
					if xfer == nil {
						break
					}
					withX := combine(tests[i], xfer, tests[j])
					st.Attempts++
					st.FaultsSimulated += mustSim.Count()
					if rec2, ok := s.RecordMust(withX.Seq,
						fsim.Options{Init: withX.SI, ScanOut: true}, mustSim); ok {
						combined = withX
						recMust = rec2
						hit = true
						st.TransferCombined++
						st.TransferVectors += len(xfer)
					}
				}
				if hit {
					accept(i, j, combined, recMust)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if opt.MaxRounds > 0 && st.Rounds >= opt.MaxRounds {
			break
		}
	}

	out := scan.NewSet()
	outLed := fsim.NewLedger(nf)
	for i, t := range tests {
		if alive[i] {
			out.Tests = append(out.Tests, t)
			outLed.Append(led.Row(i))
		}
	}
	return out, outLed, st
}

// minXRunLen is the shortest τ_j whose all-X run is kept for the sync
// cut of its trials: on shorter suffixes the run costs more than the
// vectors it saves.
const minXRunLen = 8

// combine returns the test (SI_i, T_i·xfer·T_j) as a fresh copy.
func combine(ti scan.Test, xfer logic.Sequence, tj scan.Test) scan.Test {
	seq := make(logic.Sequence, 0, len(ti.Seq)+len(xfer)+len(tj.Seq))
	for _, part := range []logic.Sequence{ti.Seq, xfer, tj.Seq} {
		for _, v := range part {
			seq = append(seq, v.Clone())
		}
	}
	return scan.Test{SI: ti.SI.Clone(), Seq: seq}
}

// transferSequence greedily builds a sequence of at most opt.TransferLen
// vectors that drives the good-machine state reached after applying
// from's test toward the target scan-in state: at each step the
// candidate vector minimizing the Hamming distance of the next state to
// target wins. Returns nil when no progress is possible.
func transferSequence(s *fsim.Simulator, from scan.Test, target logic.Vector, opt Options, r *rand.Rand) logic.Sequence {
	cands := opt.TransferCandidates
	if cands <= 0 {
		cands = 8
	}
	c := s.Circuit()
	eng := sim.New(c)
	eng.SetStateVector(stateForEngine(s, from.SI))
	for _, v := range from.Seq {
		eng.SetPIVector(v)
		eng.Step()
	}

	// Resolve the scanned positions once; distanceToTarget runs per
	// candidate per step and must not rebuild the full-scan chain.
	chain := s.Chain()
	if chain == nil {
		chain = make([]int, c.NumFFs())
		for i := range chain {
			chain[i] = i
		}
	}

	var out logic.Sequence
	cur := distanceToTarget(chain, eng, target)
	for step := 0; step < opt.TransferLen; step++ {
		if cur == 0 {
			break
		}
		var bestVec logic.Vector
		bestDist := cur
		state := eng.StateWords(nil)
		for k := 0; k < cands; k++ {
			v := make(logic.Vector, c.NumPIs())
			for i := range v {
				v[i] = logic.Value(r.Intn(2))
			}
			eng.LoadStateWords(state)
			eng.SetPIVector(v)
			eng.Step()
			if d := distanceToTarget(chain, eng, target); d < bestDist {
				bestDist, bestVec = d, v
			}
		}
		eng.LoadStateWords(state)
		if bestVec == nil {
			break // no candidate makes progress
		}
		eng.SetPIVector(bestVec)
		eng.Step()
		out = append(out, bestVec)
		cur = bestDist
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stateForEngine expands a scan-in vector (chain-indexed under partial
// scan) into a full flip-flop state vector for a raw engine.
func stateForEngine(s *fsim.Simulator, si logic.Vector) logic.Vector {
	c := s.Circuit()
	full := logic.NewVector(c.NumFFs(), logic.X)
	chain := s.Chain()
	if chain == nil {
		copy(full, si)
		return full
	}
	for k, ff := range chain {
		if k < len(si) {
			full[ff] = si[k]
		}
	}
	return full
}

// distanceToTarget counts the chained flip-flops whose current value
// definitely differs from (or cannot be confirmed equal to) the target
// scan-in value.
func distanceToTarget(chain []int, eng *sim.Engine, target logic.Vector) int {
	d := 0
	for k, ff := range chain {
		want := logic.X
		if k < len(target) {
			want = target[k]
		}
		if !want.IsBinary() {
			continue
		}
		if got := eng.State(ff).Get(0); got != want {
			d++
		}
	}
	return d
}

// InitialFromComb converts a combinational test set (state, PI) pairs
// into the length-1 scan test set that [4] uses as its starting point.
type CombSource interface {
	ScanTest() scan.Test
}

// FromCombTests builds the initial scan test set of [4] from any slice
// of combinational tests.
func FromCombTests[T CombSource](tests []T) *scan.Set {
	out := scan.NewSet()
	for _, t := range tests {
		out.Tests = append(out.Tests, t.ScanTest())
	}
	return out
}
