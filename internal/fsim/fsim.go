// Package fsim implements fault simulation for full-scan circuits using
// the parallel-fault method: each pass packs the good machine into slot 0
// and the faulty machines into the remaining slots of a dual-rail word
// simulator, then replays an input sequence once for the whole pass.
// When a memoized good-machine trace is available (see the trace cache in
// tracecache.go), slot 0 is freed for one more faulty machine and the
// good values come from the cache instead.
//
// Every pass runs on the compiled batch kernel (sim.BatchEngine): the
// circuit is lowered once into a straight-line program of dual-rail word
// ops and executed over W-word batches, so one pass carries up to
// 64*W-1 faulty machines (SetBatchWords; default 4 words = 255 faults
// per pass). The width adapts to the target count, down to one word for
// target sets of 63 faults or fewer. Detection results are bit-identical
// for every width — the differential tests in package oracle and
// kernel_diff_test.go assert this against the independent reference.
//
// Detection criteria follow standard practice: a fault is detected when a
// primary output carries definite, differing values in the good and
// faulty machines at some time unit, or — for scan tests — when the
// flip-flop state after the final functional clock differs observably
// (full scan makes every flip-flop observable at scan-out).
//
// Simulation passes are independent, so a Simulator can shard them over
// a pool of workers (SetWorkers); each worker owns private engines and
// detection results are merged after the fan-out.
package fsim

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// defaultBatchWords is the default kernel batch width: 4 words = 256
// slots = 255 faulty machines per pass (256 with a cached good trace).
const defaultBatchWords = 4

// maxBatchWords caps SetBatchWords; beyond ~1024 slots per pass the
// value arena outgrows caches faster than the pass count shrinks.
const maxBatchWords = 16

// Simulator fault-simulates one circuit against a fixed fault list.
// The fault list order defines fault indices used in all result sets.
//
// A Simulator is safe for concurrent use: every simulation run checks a
// private engine out of an internal pool, and the shared good-machine
// trace cache is mutex-guarded. SetWorkers additionally shards the
// passes of a single Detect call over that pool.
//
// The simulator carries the circuit's scan configuration: under full
// scan (New) a scan-in vector addresses every flip-flop and a scan-out
// observes every flip-flop; under partial scan (NewChain) scan-in
// vectors are indexed by chain position, unscanned flip-flops power up
// X at the start of every test, and only scanned flip-flops are
// observable at scan-out.
type Simulator struct {
	c        *circuit.Circuit
	faults   []fault.Fault
	chain    []int // scanned FF positions in scan order; nil = full scan
	observed []int // FF positions compared at scan-out

	mu         sync.Mutex
	workers    int          // max concurrent passes per run
	idle       []*worker    // checked-in workers
	batchWords int          // maximum kernel batch width in words
	order      []int        // pass-packing permutation over fault indices; nil = ascending
	prog       *sim.Program // lazily compiled batch program

	cache *traceCache

	// Cumulative pass-work counters (see Stats).
	passes      atomic.Int64
	passVectors atomic.Int64
	faultSlots  atomic.Int64
}

// PassStats is a snapshot of a Simulator's cumulative pass-work
// counters: how many parallel-fault passes ran, how many input vectors
// those passes executed in total, and how many fault slots they packed.
// PassVectors is the primary "simulated fault-pass work" metric — a pass
// that early-exits after detecting all its faults executes fewer vectors
// than the sequence length.
type PassStats struct {
	Passes      int64
	PassVectors int64
	FaultSlots  int64
}

// Sub returns the counter deltas s - o, for measuring one phase of a
// longer run.
func (s PassStats) Sub(o PassStats) PassStats {
	return PassStats{
		Passes:      s.Passes - o.Passes,
		PassVectors: s.PassVectors - o.PassVectors,
		FaultSlots:  s.FaultSlots - o.FaultSlots,
	}
}

// Stats returns the cumulative pass-work counters since construction (or
// the last ResetStats).
func (s *Simulator) Stats() PassStats {
	return PassStats{
		Passes:      s.passes.Load(),
		PassVectors: s.passVectors.Load(),
		FaultSlots:  s.faultSlots.Load(),
	}
}

// ResetStats zeroes the pass-work counters.
func (s *Simulator) ResetStats() {
	s.passes.Store(0)
	s.passVectors.Store(0)
	s.faultSlots.Store(0)
}

// worker owns the per-goroutine simulation state of one pool member.
// Its batch engine is created lazily on the first pass.
type worker struct {
	s       *Simulator
	beng    *sim.BatchEngine
	binjBuf []sim.BatchInjection
	maskBuf []uint64 // per-fault kernel injection masks
	vecBuf  []uint64 // batch/detected/diff/potential mask scratch
}

// kernel returns the worker's batch engine at the given width, creating
// or re-arming it as needed.
func (wk *worker) kernel(width int) *sim.BatchEngine {
	if wk.beng == nil || wk.beng.Cap() < width {
		wk.beng = sim.NewBatch(wk.s.program(), max(width, wk.s.BatchWords()))
	}
	if wk.beng.Width() != width {
		wk.beng.SetWidth(width)
	}
	return wk.beng
}

// New returns a full-scan Simulator for c over the given fault list
// (typically fault.Collapse(c)).
func New(c *circuit.Circuit, faults []fault.Fault) *Simulator {
	s := &Simulator{
		c: c, faults: faults, workers: 1,
		batchWords: defaultBatchWords,
		cache:      newTraceCache(defaultTraceCacheCap),
	}
	s.observed = make([]int, c.NumFFs())
	for i := range s.observed {
		s.observed[i] = i
	}
	return s
}

// NewChain returns a Simulator whose scan operations follow ch. A nil
// chain means full scan.
func NewChain(c *circuit.Circuit, faults []fault.Fault, ch *scan.Chain) *Simulator {
	s := New(c, faults)
	if ch != nil {
		s.chain = append([]int(nil), ch.FFs...)
		s.observed = s.chain
	}
	return s
}

// SetWorkers sets how many workers a single simulation run may fan its
// passes out to. n <= 0 selects runtime.NumCPU(). It returns s so the
// call chains onto New. One worker (the default) keeps runs serial.
func (s *Simulator) SetWorkers(n int) *Simulator {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
	return s
}

// SetBatchWords sets the kernel batch width in words: each kernel pass
// carries 64*n slots (64*n - 1 faulty machines, one more with a cached
// good trace). n <= 0 restores the default; n is capped at a small
// compile-time maximum. Passes over fewer targets use narrower widths;
// SetBatchWords(1) makes every pass a one-word kernel pass. Detection
// results are bit-identical at every width — this is purely a
// performance lever. It returns s so the call chains onto New.
func (s *Simulator) SetBatchWords(n int) *Simulator {
	if n <= 0 {
		n = defaultBatchWords
	}
	if n > maxBatchWords {
		n = maxBatchWords
	}
	s.mu.Lock()
	s.batchWords = n
	s.idle = nil // let workers re-size their kernel arenas lazily
	s.mu.Unlock()
	return s
}

// SetOrder installs a simulation-order permutation over fault indices
// (e.g. adi.Compute's descending accidental-detection order): runs that
// span multiple passes pack faults into passes following perm instead of
// ascending index order. Fault indices themselves are untouched — every
// result set stays indexed by the canonical fault list, and detection
// results are bit-identical under any order (ordering only changes which
// faults share a pass, hence how often the per-pass early exit fires).
// nil restores ascending order. perm must be a permutation of
// [0, NumFaults); SetOrder panics otherwise, since a silently dropped
// fault would corrupt every later detection result. It returns s so the
// call chains onto New.
func (s *Simulator) SetOrder(perm []int) *Simulator {
	if perm != nil {
		if len(perm) != len(s.faults) {
			panic("fsim: SetOrder permutation length mismatch")
		}
		seen := make([]bool, len(perm))
		for _, i := range perm {
			if i < 0 || i >= len(perm) || seen[i] {
				panic("fsim: SetOrder argument is not a permutation")
			}
			seen[i] = true
		}
		perm = append([]int(nil), perm...)
	}
	s.mu.Lock()
	s.order = perm
	s.mu.Unlock()
	return s
}

// Order returns the installed simulation-order permutation (nil =
// ascending). Do not modify the returned slice.
func (s *Simulator) Order() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order
}

// BatchWords returns the configured kernel batch width in words.
func (s *Simulator) BatchWords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batchWords
}

// program returns the compiled batch program, compiling on first use.
func (s *Simulator) program() *sim.Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prog == nil {
		s.prog = sim.Compile(s.c)
	}
	return s.prog
}

// effWidth picks the batch width (in words) for a run over ntargets
// faults: wide enough for the targets plus the good-machine slot, but
// never wider than configured.
func (s *Simulator) effWidth(ntargets int) int {
	return min((ntargets+64)/64, s.BatchWords()) // +1 slot for the good machine
}

// SetTraceCacheCap resizes the good-machine trace cache to hold n
// entries, dropping any cached traces; n <= 0 disables the cache
// entirely. The cache is purely a performance lever — detection results
// are identical at any capacity (the differential tests in package
// oracle assert this under eviction pressure). It returns s so the call
// chains onto New.
func (s *Simulator) SetTraceCacheCap(n int) *Simulator {
	s.mu.Lock()
	if n <= 0 {
		s.cache = nil
	} else {
		s.cache = newTraceCache(n)
	}
	s.mu.Unlock()
	return s
}

// traceCacheRef returns the current cache (nil when disabled).
func (s *Simulator) traceCacheRef() *traceCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}

// Workers returns the configured worker bound.
func (s *Simulator) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// acquire checks a worker out of the pool, creating one if none is idle.
func (s *Simulator) acquire() *worker {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return w
	}
	s.mu.Unlock()
	return &worker{s: s}
}

// release returns a worker to the pool.
func (s *Simulator) release(w *worker) {
	s.mu.Lock()
	s.idle = append(s.idle, w)
	s.mu.Unlock()
}

// Chain returns the scanned flip-flop positions in scan order, or nil
// under full scan. Do not modify the returned slice.
func (s *Simulator) Chain() []int { return s.chain }

// Nsv returns the number of scanned state variables (the cost model's
// N_SV): the chain length, or every flip-flop under full scan.
func (s *Simulator) Nsv() int {
	if s.chain == nil {
		return s.c.NumFFs()
	}
	return len(s.chain)
}

// Circuit returns the simulated netlist.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// Faults returns the fault list (do not modify).
func (s *Simulator) Faults() []fault.Fault { return s.faults }

// NumFaults returns the size of the fault list.
func (s *Simulator) NumFaults() int { return len(s.faults) }

// Options selects what a Detect run observes and simulates.
type Options struct {
	// Init is the scan-in state; nil runs without scan from the all-X
	// power-up state.
	Init logic.Vector
	// ScanOut adds the final flip-flop state to the observation points
	// (the scan-out compare of a scan test).
	ScanOut bool
	// Targets limits simulation to the faults in the set; nil simulates
	// the whole fault list.
	Targets *fault.Set
	// Potential, when non-nil, additionally collects potential
	// detections: faults whose faulty machine shows X at an observation
	// point where the good machine is definite. On silicon such a fault
	// is detected with some probability; sequential ATPG tools report
	// the count separately. A fault can appear in both sets (hard at one
	// point, potential at another). Enabling this disables the per-pass
	// early exit.
	Potential *fault.Set
}

// runSpec carries the per-run parameters shared by every pass of one
// simulation run. It is read-only during the fan-out.
type runSpec struct {
	seq     logic.Sequence
	init    logic.Vector
	scanOut bool
	good    *goodTrace   // memoized good machine; nil = slot 0 carries it
	profile *Profile     // per-time recording target, or nil
	rec     *Record      // detection-record target, or nil (see record.go)
	xrec    *XRun        // all-X run recording sync points (RunX), or nil
	xcut    *XRun        // scan-in replay cut at its all-X sync points, or nil
	fill    *Prefix      // prefix pass recording end states (Prefix.Fill), or nil
	from    *Prefix      // run continuing a prefix from its end states, or nil
	abort   *atomic.Bool // cross-pass abort for must-detect checks, or nil
	repack  bool         // survivor repacking enabled (see run)
}

// Detect fault-simulates seq under opt and returns the set of detected
// faults. Within each pass, simulation stops early once every fault in
// the pass is detected (unless the scan-out compare could still matter,
// which it cannot once everything is detected).
func (s *Simulator) Detect(seq logic.Sequence, opt Options) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	s.run(seq, opt, detected, runSpec{})
	return detected
}

// DetectTest is Detect for a scan test (SI, T) with scan-out observation.
func (s *Simulator) DetectTest(si logic.Vector, seq logic.Sequence, targets *fault.Set) *fault.Set {
	return s.Detect(seq, Options{Init: si, ScanOut: true, Targets: targets})
}

// DetectsAll reports whether the run described by opt over seq detects
// every fault in must (opt.Targets and opt.Potential are overridden).
// Passes abort early: once a finished pass leaves one of its faults
// undetected, pending passes are skipped and — with parallel workers —
// in-flight passes stop at their next time unit. Absence of detection
// within a single pass still requires replaying that pass to its final
// observation, so a negative answer costs at least one full pass.
func (s *Simulator) DetectsAll(seq logic.Sequence, opt Options, must *fault.Set) bool {
	if must == nil || must.Count() == 0 {
		return true
	}
	opt.Targets = must
	opt.Potential = nil
	var abort atomic.Bool
	detected := fault.NewSet(len(s.faults))
	s.run(seq, opt, detected, runSpec{abort: &abort})
	if abort.Load() {
		return false
	}
	return detected.ContainsAll(must)
}

// AllDetected reports whether the scan test (si, seq) detects every
// fault in must, with the early-abort behaviour of DetectsAll.
func (s *Simulator) AllDetected(si logic.Vector, seq logic.Sequence, must *fault.Set) bool {
	return s.DetectsAll(seq, Options{Init: si, ScanOut: true}, must)
}

// targetIndices resolves the target set to a freshly allocated slice of
// fault indices, in the installed simulation order. Target sets that fit
// a single one-word pass skip the order filter: packing within one pass
// cannot change pass count or results.
func (s *Simulator) targetIndices(targets *fault.Set) []int {
	order := s.Order()
	if targets == nil {
		idx := make([]int, len(s.faults))
		if order != nil {
			copy(idx, order)
		} else {
			for i := range idx {
				idx[i] = i
			}
		}
		return idx
	}
	n := targets.Count()
	idx := make([]int, 0, n)
	if order == nil || n < 64 {
		targets.ForEach(func(i int) { idx = append(idx, i) })
		return idx
	}
	for _, i := range order {
		if targets.Has(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// run executes one simulation run: it resolves the targets (in the
// installed simulation order), decides the batch geometry (64*width - 1
// faults per pass, one more when a memoized good trace frees slot 0,
// with width adapted to the target count), and fans the passes out over
// the worker pool. Detections are accumulated into detected and
// spec's recording targets (profile, rec, xrec) are filled; spec's
// remaining fields are set here. A non-nil spec.abort turns the run into
// a must-detect check: a completed pass with an undetected fault aborts
// the remaining ones.
//
// In plain detection mode (no abort, profile or potential collection)
// passes additionally repack: a pass most of whose faults are already
// detected aborts early and hands its few undetected survivors to the
// next generation, where survivors from many passes consolidate into
// fresh, tighter passes (re-simulated from scratch). Per-fault detection
// is independent of pass packing, so results are bit-identical; each
// generation is at most half the size of the previous one, so the
// loop terminates in O(log targets) generations.
func (s *Simulator) run(seq logic.Sequence, opt Options, detected *fault.Set, rs runSpec) {
	targets := s.targetIndices(opt.Targets)
	if len(targets) == 0 {
		return
	}
	spec := &rs
	abort := spec.abort
	spec.seq, spec.init, spec.scanOut = seq, opt.Init, opt.ScanOut
	// Recording (rec, xrec, fill) deliberately keeps repacking on: the
	// recorded per-fault data is packing-independent, and survivors of an
	// aborted pass are re-simulated from scratch, so the generation that
	// finishes them writes their entries (an X-run sync point may be
	// rewritten, with the same value).
	spec.repack = abort == nil && spec.profile == nil && opt.Potential == nil && len(seq) > 1

	bs := 64*s.effWidth(len(targets)) - 1
	cache := s.traceCacheRef()
	// The X-run and prefix passes keep the good machine in slot 0: RunX
	// and Prefix.Fill read its flip-flops, a cut replay would not pay for
	// a full trace, and a run from a prefix does not start at a scan-in.
	if len(seq) > 0 && spec.xrec == nil && spec.xcut == nil && spec.fill == nil && spec.from == nil {
		tr, repeat := cache.lookup(opt.Init, seq)
		switch {
		case tr != nil:
			spec.good = tr
		case repeat && len(targets) > bs:
			// Compute a trace only for keys that recur and runs that span
			// two or more passes: a repeat makes later hits likely, and
			// the extra passes amortize the one good-machine replay that
			// fills the cache. One-shot keys (most compaction candidates)
			// skip straight to good-in-slot-0 passes.
			w := s.acquire()
			spec.good = w.computeGoodTrace(spec.init, seq)
			s.release(w)
			cache.put(opt.Init, seq, spec.good)
		}
	}

	for queue := targets; len(queue) > 0; {
		width := s.effWidth(len(queue))
		bs = 64*width - 1
		if spec.good != nil {
			bs++ // a cached good machine frees slot 0 for one more fault
		}
		nb := (len(queue) + bs - 1) / bs
		survByPass := make([][]int, nb)

		workers := s.Workers()
		if workers > nb {
			workers = nb
		}
		if workers <= 1 {
			w := s.acquire()
			for k := 0; k < nb; k++ {
				if abort != nil && abort.Load() {
					break
				}
				batch := queue[k*bs : min((k+1)*bs, len(queue))]
				survByPass[k] = w.simulate(batch, spec, width, detected, opt.Potential)
				if abort != nil && !containsAllIdx(detected, batch) {
					abort.Store(true)
					break
				}
			}
			s.release(w)
		} else {
			// Parallel fan-out: workers pull pass indices from a shared
			// counter and collect into private sets, merged once at the
			// end — the hot path takes no locks. Survivors land in a
			// per-pass slot, so the next generation's queue order does not
			// depend on goroutine scheduling.
			var next atomic.Int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := s.acquire()
					defer s.release(w)
					local := fault.NewSet(len(s.faults))
					var localPot *fault.Set
					if opt.Potential != nil {
						localPot = fault.NewSet(len(s.faults))
					}
					for {
						k := int(next.Add(1)) - 1
						if k >= nb {
							break
						}
						if abort != nil && abort.Load() {
							break
						}
						batch := queue[k*bs : min((k+1)*bs, len(queue))]
						survByPass[k] = w.simulate(batch, spec, width, local, localPot)
						if abort != nil && !containsAllIdx(local, batch) {
							abort.Store(true)
							break
						}
					}
					mu.Lock()
					detected.UnionWith(local)
					if localPot != nil {
						opt.Potential.UnionWith(localPot)
					}
					mu.Unlock()
				}()
			}
			wg.Wait()
		}

		var surv []int
		for _, sv := range survByPass {
			surv = append(surv, sv...)
		}
		queue = surv
	}
}

// containsAllIdx reports whether every index in batch is in set.
func containsAllIdx(set *fault.Set, batch []int) bool {
	for _, fi := range batch {
		if !set.Has(fi) {
			return false
		}
	}
	return true
}

// simulate runs one pass at the chosen width. The pass-work counters
// record each pass and the vectors it actually executed (early exits cut
// the vector count). The returned slice holds the survivors of a
// repacked pass (nil when the pass ran to completion or fully detected
// its faults).
func (w *worker) simulate(batch []int, spec *runSpec, width int, detected, potential *fault.Set) []int {
	nvec, surv := w.runBatchVec(batch, spec, width, detected, potential)
	w.s.passes.Add(1)
	w.s.passVectors.Add(int64(nvec))
	w.s.faultSlots.Add(int64(len(batch)))
	return surv
}

// repackable reports whether a pass at vector u (of seqLen) may still
// abort for survivor repacking: only within the first three quarters of
// the sequence — later aborts save too few vectors to pay for the
// survivors' re-simulation.
func repackable(u, seqLen int) bool {
	return 4*(u+1) <= 3*seqLen
}

// undetectedOf collects the batch members whose slot bit fails det.
// A repacking pass only aborts when survivors number at most half
// of the batch, so consecutive generations shrink geometrically.
func undetectedOf(batch []int, slot0 uint, det func(bit uint) bool) []int {
	var surv []int
	for bi, fi := range batch {
		if !det(uint(bi) + slot0) {
			surv = append(surv, fi)
		}
	}
	return surv
}

// runBatchVec simulates one parallel-fault pass over spec.seq on the
// compiled batch kernel: it carries up to 64*width - 1 faulty machines
// (64*width with a cached good trace). batch holds the fault indices of
// the pass; detections are added to detected and potential detections
// to potential (nil = not collected). The good trace is slot-uniform, so
// comparing every word against the same good word is exact. In profile
// mode (spec.profile non-nil) per-time detection data is recorded
// instead of early-exiting. An all-X pass of RunX (spec.xrec) also
// records each fault's sync point and final scan-out diff; a scan-in
// replay of XRun.DetectTest (spec.xcut) stops at the batch's sync
// horizon and takes the scan-out compare from the all-X run (see
// xrun.go). A prefix pass (spec.fill) records each fault's end state; a
// run from a prefix (spec.from) starts each slot from its fault's end
// state instead of the scan-in (see prefix.go). It returns the number
// of input vectors
// actually executed, plus the undetected survivors when the pass
// repacked (see run).
func (wk *worker) runBatchVec(batch []int, spec *runSpec, width int, detected, potential *fault.Set) (int, []int) {
	s := wk.s
	eng := wk.kernel(width)
	eng.Reset()

	slot0 := 1 // slot of the first faulty machine
	if spec.good != nil {
		slot0 = 0 // cached good machine: slot 0 carries a fault too
	}
	if need := len(batch) * width; cap(wk.maskBuf) < need {
		wk.maskBuf = make([]uint64, need)
	} else {
		wk.maskBuf = wk.maskBuf[:need]
		clear(wk.maskBuf)
	}
	if cap(wk.vecBuf) < 6*width {
		wk.vecBuf = make([]uint64, 6*width)
	} else {
		wk.vecBuf = wk.vecBuf[:6*width]
		clear(wk.vecBuf)
	}
	batchMask := wk.vecBuf[0*width : 1*width]
	detMask := wk.vecBuf[1*width : 2*width]
	diff := wk.vecBuf[2*width : 3*width]
	pot := wk.vecBuf[3*width : 4*width]
	unsynced := wk.vecBuf[4*width : 5*width] // RunX: slots with no sync point yet
	bin := wk.vecBuf[5*width : 6*width]      // RunX: markSynced scratch
	if potential == nil {
		pot = nil
	}
	n := len(spec.seq) // vectors this pass replays
	if spec.xcut != nil {
		n = spec.xcut.horizon(batch)
	}
	var goodPO, goodObs [][]logic.Word // nil: slot 0 carries the good machine
	if spec.good != nil {
		goodPO, goodObs = spec.good.po, spec.good.obs
	}

	wk.binjBuf = wk.binjBuf[:0]
	for bi, fi := range batch {
		gs := bi + slot0 // global slot of this fault
		m := wk.maskBuf[bi*width : (bi+1)*width]
		m[gs>>6] = 1 << (uint(gs) & 63)
		batchMask[gs>>6] |= m[gs>>6]
		f := s.faults[fi]
		wk.binjBuf = append(wk.binjBuf, sim.BatchInjection{Node: f.Node, Pin: f.Pin, Stuck: f.Stuck, Mask: m})
	}
	eng.SetInjections(wk.binjBuf)
	syncing := spec.xrec != nil
	if syncing {
		copy(unsynced, batchMask)
	}

	if spec.from != nil {
		spec.from.load(eng, batch)
	} else {
		s.scanIn(eng, spec.init)
	}

	profile := spec.profile
	for u, vec := range spec.seq[:n] {
		if spec.abort != nil && spec.abort.Load() {
			return u, nil // another pass already failed the must-detect check
		}
		eng.SetPIVector(vec)
		eng.EvalComb()
		clear(diff)
		clear(pot)
		for i := range s.c.POs {
			observe(eng.PO(i), row(goodPO, u), i, diff, pot)
		}
		for k := 0; k < width; k++ {
			if potential != nil {
				for m := pot[k] & batchMask[k]; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					potential.Add(batch[k*64+b-slot0])
				}
			}
			d := diff[k] & batchMask[k] &^ detMask[k]
			if d != 0 {
				for m := d; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					fi := batch[k*64+b-slot0]
					detected.Add(fi)
					if profile != nil {
						profile.poDetect[fi] = int32(u)
					}
					if spec.rec != nil {
						spec.rec.first[fi] = int32(u)
					}
				}
				detMask[k] |= d
			}
		}
		eng.ClockFF()
		if profile != nil {
			// Record which faults a scan-out after this clock would catch.
			clear(diff)
			for j, ff := range s.observed {
				observe(eng.State(ff), row(goodObs, u), j, diff, nil)
			}
			for k := 0; k < width; k++ {
				for m := diff[k] & batchMask[k]; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					profile.setStateDiff(batch[k*64+b-slot0], u)
				}
			}
			continue
		}
		if syncing {
			syncing = spec.xrec.markSynced(eng, batch, u, unsynced, bin)
		}
		if potential == nil && slices.Equal(detMask, batchMask) {
			return u + 1, nil // every fault in this pass already detected
		}
		if spec.repack && repackable(u, n) {
			ndet := 0
			for k := 0; k < width; k++ {
				ndet += bits.OnesCount64(detMask[k])
			}
			if live := len(batch) - ndet; 2*live <= len(batch) {
				return u + 1, undetectedOf(batch, uint(slot0), func(bit uint) bool {
					return detMask[bit>>6]&(1<<(bit&63)) != 0
				})
			}
		}
	}
	switch {
	case spec.fill != nil:
		spec.fill.markEnd(eng, batch, batchMask, detMask)
	case spec.xrec != nil:
		spec.xrec.markScanOut(eng, batch, diff)
	case spec.xcut != nil && n < len(spec.seq):
		spec.xcut.addScanOut(batch, detMask, detected)
	case spec.scanOut:
		clear(diff)
		clear(pot)
		for j, ff := range s.observed {
			observe(eng.State(ff), row(goodObs, len(spec.seq)-1), j, diff, pot)
		}
		for k := 0; k < width; k++ {
			if potential != nil {
				for m := pot[k] & batchMask[k]; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					potential.Add(batch[k*64+b-slot0])
				}
			}
			for m := diff[k] & batchMask[k] &^ detMask[k]; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				fi := batch[k*64+b-slot0]
				detected.Add(fi)
				if spec.rec != nil {
					spec.rec.so[fi] = true
				}
			}
		}
	}
	return n, nil
}

// scanIn loads the scan-in vector into eng, broadcast to every slot:
// under full scan si is indexed by flip-flop position; under partial
// scan by chain position, with unscanned flip-flops left X.
func (s *Simulator) scanIn(eng *sim.BatchEngine, si logic.Vector) {
	nff := s.c.NumFFs()
	if s.chain == nil {
		if si == nil {
			si = logic.NewVector(nff, logic.X)
		}
		eng.SetStateVector(si)
		return
	}
	eng.SetStateVector(logic.NewVector(nff, logic.X))
	for k, ff := range s.chain {
		v := logic.X
		if si != nil && k < len(si) {
			v = si[k]
		}
		eng.SetStateValue(ff, v)
	}
}

// observe folds observation point i into the per-word masks: diff gains
// the slots whose faulty value wv definitely differs from the good
// value, and pot (nil = not collected) the slots where the good value
// is definite but the faulty one is not. The good value comes from good
// (a cached trace row) or, when good is nil, from slot 0 of wv.
func observe(wv logic.WordVec, good []logic.Word, i int, diff, pot []uint64) {
	g := wv[0].BroadcastSlot(0)
	if good != nil {
		g = good[i]
	}
	for k := range diff {
		diff[k] |= logic.DiffDefinite(wv[k], g)
	}
	gd := g.Defined()
	for k := range pot {
		pot[k] |= gd &^ wv[k].Defined()
	}
}

// row returns rows[u] of a cached good trace, or nil when there is no
// cached trace (slot 0 carries the good machine) or no row u.
func row(rows [][]logic.Word, u int) []logic.Word {
	if u < 0 || u >= len(rows) {
		return nil
	}
	return rows[u]
}

// GoodTrace returns the good-machine trace of seq from init (nil = all X).
func (s *Simulator) GoodTrace(init logic.Vector, seq logic.Sequence) *sim.Trace {
	return sim.RunSequence(s.c, init, seq)
}

// Coverage is the fraction of the fault list detected by set (0..1).
func Coverage(detected *fault.Set, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(detected.Count()) / float64(total)
}
