// Package workload runs the paper's experimental pipeline end to end for
// one circuit or for the whole roster, and assembles the row data of the
// paper's Tables 1-5.
//
// Per circuit the pipeline is:
//
//  1. generate the synthetic substitute netlist (internal/gen roster);
//  2. collapse the stuck-at fault universe;
//  3. generate the combinational test set C (internal/atpg, the paper's
//     [9] substitute);
//  4. generate the sequential test sequence T_0 (internal/seqgen, the
//     paper's STRATEGATE/PROPTEST substitute) and compact it with vector
//     omission (the paper's [11] substitute);
//  5. run the baselines: the initial and compacted test sets of [4]
//     (internal/scomp) and the dynamic compaction of [2,3]
//     (internal/dyncomp);
//  6. run the proposed procedure with the ATPG T_0 and with a random
//     T_0 of length 1000 (internal/core).
package workload

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/adi"
	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dyncomp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/restore"
	"repro/internal/scan"
	"repro/internal/scomp"
	"repro/internal/seqgen"
	"repro/internal/vecomit"
)

// Config tunes the pipeline. The zero value reproduces the paper's
// setup (random T_0 length 1000; everything else defaulted).
type Config struct {
	// Seed offsets every per-circuit seed; 0 keeps the roster defaults.
	Seed int64
	// T0MaxLen caps the directed T_0 length (0 = default 300).
	T0MaxLen int
	// RandomT0Len is the random-sequence length (0 = the paper's 1000).
	RandomT0Len int
	// T0Compactor selects how the directed T_0 is conditioned before the
	// procedure (the role of [11] in the paper): "omit" (default,
	// vector omission), "restore" (vector restoration — the literal [11]
	// algorithm, slower on large keep-sets), or "none".
	T0Compactor string
	// SkipRandom skips the random-T_0 arm (Tables 3-5 right columns).
	SkipRandom bool
	// SkipDynamic skips the [2,3] dynamic baseline (Table 3 column 1).
	SkipDynamic bool
	// Workers bounds the worker fan-out of each fault-simulation run
	// (fsim.Simulator.SetWorkers): 0 keeps runs serial, negative selects
	// runtime.NumCPU(). Results are identical for any value.
	Workers int
	// BatchWords sets the maximum compiled-kernel batch width in words
	// (fsim.Simulator.SetBatchWords): 0 keeps the fsim default, 1 runs
	// every pass one word wide. Results are identical for any value.
	BatchWords int
	// Order selects the fault simulation order: "adi" (default, the
	// accidental-detection-index order of arXiv:0710.4637, installed via
	// fsim.Simulator.SetOrder) or "none" (ascending fault index). The
	// order only changes pass packing inside the simulator — every
	// detected set, table and N_cyc is identical either way.
	Order string
	// Uncollapsed targets the full uncollapsed fault universe instead of
	// the structurally collapsed representatives. Roughly doubles the
	// simulated fault count for identical information; kept as the
	// baseline arm of BENCH_adi.json.
	Uncollapsed bool
	// Check audits every run against the reference simulator in package
	// oracle: the proposed procedure through core.Options.Audit, the
	// baselines and T_0 grading through sampled re-simulation. A
	// violation fails the run. Sampled, but still several times slower
	// than an unchecked run.
	Check bool
	// CheckSample bounds the faults re-simulated per audited artifact
	// (0 = the oracle's default, negative = every fault).
	CheckSample int
	// ScanFFs enables partial scan: only the first ScanFFs flip-flops
	// join the scan chain (0 or >= the FF count keeps full scan). The
	// chain threads through ATPG, the simulator and the oracle audit.
	ScanFFs int
	// SkipBaselines skips the [4] static-compaction baselines and the
	// dynamic baseline (the proposed-procedure-only mode the scancompact
	// CLI uses).
	SkipBaselines bool
	// SkipDirected skips the directed-T_0 arm entirely (no sequential
	// generation, no [11]-style conditioning); combine with RandomT0Len
	// to run the random arm alone.
	SkipDirected bool
	// Progress, when non-nil, is called with a short phase name ("atpg",
	// "t0", "baselines", "proposed", "random", "audit") as the pipeline
	// enters each phase. Observation only — it never changes results.
	Progress func(phase string) `json:"-"`
	// Core passes extra options to the proposed procedure.
	Core core.Options `json:"-"`
}

// Chain builds the partial-scan chain the config implies for ckt: the
// first ScanFFs flip-flops, or nil under full scan. Shared by the
// pipeline and by clients that need the chain to post-process a cached
// result (e.g. expected-response generation).
func (c Config) Chain(ckt *circuit.Circuit) (*scan.Chain, error) {
	if c.ScanFFs <= 0 || c.ScanFFs >= ckt.NumFFs() {
		return nil, nil
	}
	ffs := make([]int, c.ScanFFs)
	for i := range ffs {
		ffs[i] = i
	}
	return scan.NewChain(ckt.NumFFs(), ffs)
}

func (c Config) withDefaults() Config {
	if c.T0MaxLen == 0 {
		c.T0MaxLen = 300
	}
	if c.Order == "" {
		c.Order = "adi"
	}
	if c.RandomT0Len == 0 {
		c.RandomT0Len = 1000
	}
	// Bound the scan-in selection cost on the larger circuits: score
	// candidates on a fault sample and a stride over C; the winner is
	// still evaluated exactly (see core.Options).
	if c.Core.SIScoreSample == 0 {
		c.Core.SIScoreSample = 504
	}
	if c.Core.SICandidateLimit == 0 {
		c.Core.SICandidateLimit = 48
	}
	if c.Core.MaxIterations == 0 {
		c.Core.MaxIterations = 5
	}
	return c
}

// CircuitRun holds every artifact produced for one circuit.
type CircuitRun struct {
	Entry   gen.RosterEntry
	Circuit *circuit.Circuit
	// Chain is the partial-scan chain (nil under full scan).
	Chain  *scan.Chain
	Faults []fault.Fault
	// Collapsed maps the simulated representatives back to the full
	// fault universe (nil when the run targeted the uncollapsed list).
	Collapsed *fault.Collapsed
	// SimStats is the pipeline simulator's cumulative pass work.
	SimStats fsim.PassStats

	Comb       *atpg.Result   // the combinational test set C
	T0         logic.Sequence // directed sequence after [11]-style compaction
	T0Detected *fault.Set

	Base4Init *scan.Set // [4]'s initial set: C as length-1 scan tests
	Base4Comp *scan.Set // [4]'s compacted set
	BaseDyn   *scan.Set // [2,3]-style dynamic compaction (nil if skipped)

	Proposed     *core.Result // proposed procedure, directed T_0
	ProposedRand *core.Result // proposed procedure, random T_0 (nil if skipped)
}

// Nsv returns the scanned state variable count.
func (r *CircuitRun) Nsv() int {
	if r.Chain != nil {
		return r.Chain.Nsv()
	}
	return r.Circuit.NumFFs()
}

// Run executes the pipeline for one roster entry. The effective seed is
// entry.Params.Seed + cfg.Seed, so the roster defaults reproduce the
// paper's setup.
func Run(entry gen.RosterEntry, cfg Config) (*CircuitRun, error) {
	ckt, err := gen.Generate(entry.Params)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", entry.Params.Name, err)
	}
	return runPipeline(ckt, entry, entry.Params.Seed+cfg.Seed, cfg)
}

// RunCircuit executes the pipeline for an already-built circuit (for
// example one parsed from an uploaded .bench netlist). The effective
// seed is cfg.Seed alone — there is no roster entry to offset it.
func RunCircuit(ckt *circuit.Circuit, cfg Config) (*CircuitRun, error) {
	entry := gen.RosterEntry{
		Params: gen.Params{
			Name: ckt.Name,
			PIs:  ckt.NumPIs(),
			POs:  ckt.NumPOs(),
			FFs:  ckt.NumFFs(),
		},
		PaperFFs: ckt.NumFFs(),
		Scale:    1,
	}
	return runPipeline(ckt, entry, cfg.Seed, cfg)
}

// runPipeline is the shared pipeline body behind Run and RunCircuit —
// the one code path the CLIs and the compactd service both execute.
func runPipeline(ckt *circuit.Circuit, entry gen.RosterEntry, seed int64, cfg Config) (*CircuitRun, error) {
	cfg = cfg.withDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	name := entry.Params.Name

	chain, err := cfg.Chain(ckt)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", name, err)
	}

	var faults []fault.Fault
	var collapsed *fault.Collapsed
	if cfg.Uncollapsed {
		faults = fault.Universe(ckt)
	} else {
		collapsed = fault.CollapseWithMap(ckt)
		faults = collapsed.Reps
	}

	progress("atpg")
	comb, err := atpg.Generate(ckt, faults, atpg.Options{Seed: seed, Chain: chain})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", name, err)
	}
	if len(comb.Tests) == 0 {
		return nil, fmt.Errorf("workload %s: empty combinational test set", name)
	}

	s := fsim.NewChain(ckt, faults, chain)
	if cfg.Workers != 0 {
		s.SetWorkers(cfg.Workers)
	}
	if cfg.BatchWords != 0 {
		s.SetBatchWords(cfg.BatchWords)
	}
	switch cfg.Order {
	case "adi":
		adi.Install(s, adi.Options{Seed: seed})
	case "none":
	default:
		return nil, fmt.Errorf("workload %s: unknown Order %q", name, cfg.Order)
	}
	run := &CircuitRun{Entry: entry, Circuit: ckt, Chain: chain, Faults: faults, Collapsed: collapsed, Comb: comb}

	// Directed T_0, compacted the way [11] conditions the sequences the
	// paper takes from [10]/[12].
	if !cfg.SkipDirected {
		progress("t0")
		t0res := seqgen.Generate(ckt, faults, seqgen.Options{Seed: seed, MaxLen: cfg.T0MaxLen})
		if len(t0res.Seq) == 0 {
			return nil, fmt.Errorf("workload %s: empty T0", name)
		}
		t0c := t0res.Seq
		if len(t0c) <= 800 {
			switch cfg.T0Compactor {
			case "", "omit":
				t0c, _ = vecomit.CompactSequence(s, t0res.Seq, t0res.Detected,
					vecomit.Options{MaxPasses: 1})
			case "restore":
				t0c, _ = restore.Compact(s, t0res.Seq, t0res.Detected, restore.Options{})
			case "none":
			default:
				return nil, fmt.Errorf("workload %s: unknown T0Compactor %q", name, cfg.T0Compactor)
			}
		}
		run.T0 = t0c
		run.T0Detected = s.Detect(t0c, fsim.Options{})
	} else if cfg.SkipRandom {
		return nil, fmt.Errorf("workload %s: SkipDirected and SkipRandom leave nothing to run", name)
	}

	// Baselines.
	if !cfg.SkipBaselines {
		progress("baselines")
		run.Base4Init = scomp.FromCombTests(comb.Tests)
		run.Base4Comp, _ = scomp.Compact(s, run.Base4Init, scomp.Options{})
		if !cfg.SkipDynamic {
			run.BaseDyn, _ = dyncomp.Compact(s, comb.Tests, dyncomp.Options{})
		}
	}

	// Proposed procedure, both T_0 sources.
	coreOpt := cfg.Core
	if cfg.Check && coreOpt.Audit == nil {
		coreOpt.Audit = oracle.Auditor(ckt, faults, chain, cfg.auditOptions())
	}
	if !cfg.SkipDirected {
		progress("proposed")
		run.Proposed, err = core.Run(s, comb.Tests, run.T0, coreOpt)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %v", name, err)
		}
	}
	if !cfg.SkipRandom {
		progress("random")
		randT0 := seqgen.Random(ckt, cfg.RandomT0Len, seed+1)
		run.ProposedRand, err = core.Run(s, comb.Tests, randT0, coreOpt)
		if err != nil {
			return nil, fmt.Errorf("workload %s (random T0): %v", name, err)
		}
	}
	run.SimStats = s.Stats() // before the audit's extra re-simulation
	if cfg.Check {
		progress("audit")
		if err := auditRun(s, run, cfg.auditOptions()); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// RunByName runs the pipeline for a roster (or XL-roster) circuit by
// name.
func RunByName(name string, cfg Config) (*CircuitRun, error) {
	if e, ok := gen.FindEntry(name); ok {
		return Run(e, cfg)
	}
	return nil, fmt.Errorf("workload: unknown roster circuit %q", name)
}

// RunAll runs the pipeline for the named circuits (nil = whole roster)
// with the given parallelism (<=0 means 4). Results keep roster order.
// Every entry runs to completion regardless of sibling failures: a
// failed entry leaves a nil hole in the result slice and contributes
// one error to the joined error value, so a batch job over many
// circuits salvages every run that succeeded.
func RunAll(names []string, cfg Config, parallelism int) ([]*CircuitRun, error) {
	if names == nil {
		names = gen.RosterNames()
	}
	if parallelism <= 0 {
		parallelism = 4
	}
	runs := make([]*CircuitRun, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i], errs[i] = RunByName(name, cfg)
		}(i, name)
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}
