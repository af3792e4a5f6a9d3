package fsim

import (
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
)

// Record is the per-test detection record behind the compaction ledger:
// for every target fault of one scan test (SI, T) it stores the first
// primary-output detecting vector position (or -1) and whether the fault
// is detected only by the final scan-out compare. Together these pin
// down the positions the compaction engines care about — a fault's first
// detection bounds which vector removals can disturb it, and a
// scan-out-only fault's last (and only) detecting position is the final
// scan-out itself.
//
// Unlike Profile, a Record is a by-product of ordinary grading: the
// per-pass early exit, survivor repacking, the trace cache and the
// worker pool all stay engaged, so recording costs nothing beyond the
// grading pass itself. The data is packing-independent — a fault's first
// PO detection and its final scan-out status do not depend on which
// faults share its pass — so Records are bit-identical at every worker
// count, batch width and simulation order (asserted by the differential
// tests in record_test.go and package oracle).
type Record struct {
	seqLen int
	first  []int32 // earliest PO-detect time per fault, or -1
	so     []bool  // detected at the final scan-out and at no PO
	det    *fault.Set
}

// newRecord allocates an empty record over n faults.
func newRecord(n, seqLen int) *Record {
	r := &Record{
		seqLen: seqLen,
		first:  make([]int32, n),
		so:     make([]bool, n),
		det:    fault.NewSet(n),
	}
	for i := range r.first {
		r.first[i] = -1
	}
	return r
}

// NumFaults returns the fault-list size the record is indexed by.
func (r *Record) NumFaults() int { return len(r.first) }

// SeqLen returns the length of the recorded sequence.
func (r *Record) SeqLen() int { return r.seqLen }

// Detected returns the set of target faults the test detects. The set is
// owned by the record; callers must not modify it.
func (r *Record) Detected() *fault.Set { return r.det }

// FirstPO returns the earliest time unit at which a primary output
// detects f, or -1 (undetected, outside the targets, or scan-out only).
func (r *Record) FirstPO(f int) int { return int(r.first[f]) }

// PODetected reports whether f is detected at a primary output (as
// opposed to only by the final scan-out compare).
func (r *Record) PODetected(f int) bool { return r.first[f] >= 0 }

// ScanOutOnly reports whether f is detected only by the final scan-out
// compare. Such a fault's only detecting position is the last vector, so
// every vector removal and every combination trial puts it at risk.
func (r *Record) ScanOutOnly(f int) bool { return r.so[f] }

// SafeBefore reports whether f has a detection that no edit at positions
// >= p can disturb: a PO detection strictly before vector position p.
func (r *Record) SafeBefore(f, p int) bool {
	d := r.first[f]
	return d >= 0 && int(d) < p
}

// Reset re-initializes r to the empty record over the same fault count,
// for a sequence of length seqLen — the reuse path of RecordMustInto.
func (r *Record) Reset(seqLen int) {
	r.seqLen = seqLen
	for i := range r.first {
		r.first[i] = -1
	}
	for i := range r.so {
		r.so[i] = false
	}
	r.det.Clear()
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := &Record{
		seqLen: r.seqLen,
		first:  append([]int32(nil), r.first...),
		so:     append([]bool(nil), r.so...),
		det:    r.det.Clone(),
	}
	return c
}

// PrefixCarry returns the record of a longer test that replays r's test
// as its prefix: same scan-in state, same first r.SeqLen() vectors,
// extended to seqLen. Simulation is deterministic, so the prefix's
// trajectory — and with it every PO detection r recorded — is preserved
// verbatim, and no earlier detection can appear (the suffix lies
// strictly after the prefix). Scan-out detections do NOT carry: the
// scan-out compare moved to the end of the extended test, so
// scan-out-only faults are left out of the result and must be
// re-established by simulation. This is the ledger's combination
// carry-over (scomp): τ_ij = (SI_i, T_i·T_j) inherits τ_i's PO rows.
func (r *Record) PrefixCarry(seqLen int) *Record {
	c := newRecord(len(r.first), seqLen)
	r.det.ForEach(func(f int) {
		if r.first[f] >= 0 {
			c.first[f] = r.first[f]
			c.det.Add(f)
		}
	})
	return c
}

// Merge overlays o's per-fault data onto r: every fault detected in o
// takes o's first-PO time and scan-out flag, and joins r's detected set.
// Faults undetected in o are left untouched. This is how the compaction
// engines refresh a ledger row after a trial re-simulated a subset of
// the faults (the subset's rows are rewritten, the rest carry over).
func (r *Record) Merge(o *Record) {
	o.det.ForEach(func(f int) {
		r.first[f] = o.first[f]
		r.so[f] = o.so[f]
		r.det.Add(f)
	})
}

// Record fault-simulates seq under opt — exactly like Detect, including
// the per-pass early exit and survivor repacking — and returns the
// detection record as a by-product. opt.Potential is ignored.
func (s *Simulator) Record(seq logic.Sequence, opt Options) *Record {
	r := newRecord(len(s.faults), len(seq))
	opt.Potential = nil
	s.run(seq, opt, r.det, runSpec{rec: r})
	return r
}

// RecordTest is Record for a scan test (SI, T) with scan-out observation.
func (s *Simulator) RecordTest(si logic.Vector, seq logic.Sequence, targets *fault.Set) *Record {
	return s.Record(seq, Options{Init: si, ScanOut: true, Targets: targets})
}

// RecordMust is the recording variant of DetectsAll: it checks that the
// run described by opt over seq detects every fault in must, with the
// same cross-pass early abort, and on success additionally returns the
// detection record over must. On failure the partial record is discarded
// and (nil, false) is returned — an aborted run leaves some passes
// unsimulated, so its record would be packing-dependent. The boolean is
// identical to what DetectsAll returns for the same arguments.
func (s *Simulator) RecordMust(seq logic.Sequence, opt Options, must *fault.Set) (*Record, bool) {
	r := newRecord(len(s.faults), len(seq))
	if must == nil || must.Count() == 0 {
		return r, true
	}
	opt.Targets = must
	opt.Potential = nil
	var abort atomic.Bool
	s.run(seq, opt, r.det, runSpec{rec: r, abort: &abort})
	if abort.Load() || !r.det.ContainsAll(must) {
		return nil, false
	}
	return r, true
}

// RecordMustInto is RecordMust with a caller-owned record buffer: buf is
// reset and reused instead of allocating a fresh record per call (pass
// nil on the first call to allocate one). The returned record aliases
// buf. Unlike RecordMust, a failed check returns the buffer (with
// unspecified contents) rather than nil, so the caller can keep reusing
// it; the boolean is still identical to DetectsAll's. Trial loops that
// accept most proposals use this to record in the same pass as the
// check without paying a per-trial allocation.
func (s *Simulator) RecordMustInto(buf *Record, seq logic.Sequence, opt Options, must *fault.Set) (*Record, bool) {
	if buf == nil {
		buf = newRecord(len(s.faults), len(seq))
	} else {
		buf.Reset(len(seq))
	}
	if must == nil || must.Count() == 0 {
		return buf, true
	}
	opt.Targets = must
	opt.Potential = nil
	var abort atomic.Bool
	s.run(seq, opt, buf.det, runSpec{rec: buf, abort: &abort})
	if abort.Load() || !buf.det.ContainsAll(must) {
		return buf, false
	}
	return buf, true
}

// Ledger is the per-fault × per-test detection record of one evolving
// test set: row i is the Record of test i (nil for a dropped or
// not-yet-graded test), and counts[f] tracks how many live rows detect
// fault f. The compaction engines keep it consistent as tests are
// combined and dropped, and read their risk sets off the counts.
//
// Invariants (see DESIGN.md §11): rows are complete over their credit
// universe — a row's detected set is exactly what the test detects among
// the faults the engine credited it with — and packing-independent, so
// dropping faults from future target sets, structural collapsing (rows
// are indexed by the collapsed representatives) and ADI reordering never
// invalidate a row. Only editing the test itself (vector removal,
// combination) does, and then only for faults whose recorded detections
// the edit can disturb.
type Ledger struct {
	rows   []*Record
	counts []int
	nf     int
}

// NewLedger returns an empty ledger over a fault list of size nf.
func NewLedger(nf int) *Ledger {
	return &Ledger{nf: nf, counts: make([]int, nf)}
}

// Len returns the number of rows (live and dropped).
func (l *Ledger) Len() int { return len(l.rows) }

// Row returns row i (nil when dropped or never set).
func (l *Ledger) Row(i int) *Record { return l.rows[i] }

// Append adds a row (nil allowed) and returns its index.
func (l *Ledger) Append(r *Record) int {
	l.rows = append(l.rows, nil)
	i := len(l.rows) - 1
	l.Set(i, r)
	return i
}

// Set replaces row i with r (nil drops it), keeping counts consistent.
func (l *Ledger) Set(i int, r *Record) {
	if old := l.rows[i]; old != nil {
		old.det.ForEach(func(f int) { l.counts[f]-- })
	}
	l.rows[i] = r
	if r != nil {
		r.det.ForEach(func(f int) { l.counts[f]++ })
	}
}

// Drop removes row i.
func (l *Ledger) Drop(i int) { l.Set(i, nil) }

// Counts returns the per-fault live detection counts. The slice is owned
// by the ledger; callers must not modify it.
func (l *Ledger) Counts() []int { return l.counts }

// NumFaults returns the fault-list size the ledger is indexed by.
func (l *Ledger) NumFaults() int { return l.nf }
