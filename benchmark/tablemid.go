package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/adi"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dyncomp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/scomp"
	"repro/internal/seqgen"
	"repro/internal/vecomit"
	"repro/internal/workload"
)

// tableOut is what one table-mid operation produces.
type tableOut struct {
	bundles []*jobs.Artifacts
	rows    []*workload.Row
	text    string // the rendered Tables 1-5
}

// tableMid runs the Tables 1-5 pipeline over the workload's circuits the
// way `tables -p 1` does: one jobs.Queue worker, no store, serial fault
// simulation, rows decoded from the artifact bundles and rendered.
//
// The pipeline always runs at the paper's defaults, so every run is
// checked row by row against tables_output.txt; the seed only permutes
// the order in which the circuits are submitted. Varying the pipeline
// seeds instead moves the work of one s1423+b04 operation by a third,
// more than a run of one operation can average out.
func tableMid(b *bench) error {
	names := append([]string(nil), b.size.tableCircuits...)
	r := rand.New(rand.NewSource(b.seed))
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	// The configuration cmd/tables builds from its default flags.
	cfg := workload.Config{Workers: 1, Order: "adi"}
	golden, err := readTables(filepath.Join(b.root, "tables_output.txt"))
	if err != nil {
		return err
	}

	// Set-up: the circuit and fault-list work every job of the operation
	// starts with. It takes milliseconds, so it is repeated often enough
	// to give a steady median.
	setup, err := b.setup(24, func() error {
		for _, name := range names {
			e, ok := gen.FindEntry(name)
			if !ok {
				return fmt.Errorf("unknown roster circuit %q", name)
			}
			c, err := gen.Generate(e.Params)
			if err != nil {
				return err
			}
			fault.CollapseWithMap(c)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var out *tableOut
	op := func() error {
		var err error
		out, err = tablesViaQueue(names, cfg)
		return err
	}
	if b.traced {
		s, err := measure(op)
		if err != nil {
			return err
		}
		b.checkTables(out, golden)
		b.set("jobs.computations", float64(len(names)), "count")
		return b.tableMidTraced(names, cfg, out, s.wall)
	}

	var ops []sample
	for start := time.Now(); !b.done(ops, start); {
		s, err := measure(op)
		if err != nil {
			return err
		}
		ops = append(ops, s)
		b.checkTables(out, golden)
	}
	b.setOps(ops)
	b.set("setup_s", setup, "s")
	ncyc, detected := 0, 0
	for _, r := range out.rows {
		for _, arm := range []*workload.ArmRow{r.Proposed, r.Rand} {
			ncyc += arm.Final.Cycles(r.Nsv)
			detected += arm.FinalDetected
		}
	}
	b.set("ncyc", float64(ncyc), "cycles")
	b.set("detected", float64(detected), "faults")
	return nil
}

// tablesViaQueue submits every circuit to a one-worker queue without a
// store, waits for the bundles, decodes the rows and renders the tables.
func tablesViaQueue(names []string, cfg workload.Config) (*tableOut, error) {
	q := jobs.NewQueue(nil, jobs.Options{Workers: 1, MaxPending: len(names) + 1})
	defer q.Close(context.Background())
	submitted := make([]*jobs.Job, len(names))
	for i, name := range names {
		j, err := q.Submit(jobs.Request{Roster: name, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		submitted[i] = j
	}
	out := &tableOut{}
	for i, j := range submitted {
		if err := j.Wait(context.Background()); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		row, err := jobs.DecodeRow(j.Artifacts())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		out.bundles = append(out.bundles, j.Artifacts())
		out.rows = append(out.rows, row)
	}
	out.text = workload.AllTables(out.rows)
	return out, nil
}

// tableMidTraced replays the pipeline call by call under spans, checks
// that the replay's bundles are byte-identical to the queue path's, and
// reports the per-layer metrics.
func (b *bench) tableMidTraced(names []string, cfg workload.Config, ref *tableOut, untracedWall float64) error {
	t := newTracer()
	root := t.begin("table-mid", 0, "workload")
	var bundles []*jobs.Artifacts
	var rows []*workload.Row
	for _, name := range names {
		e, _ := gen.FindEntry(name)
		a, row, err := replay(t, root, e, cfg)
		if err != nil {
			return err
		}
		bundles = append(bundles, a)
		rows = append(rows, row)
	}
	id := t.begin("table-mid", root, "tables.render")
	text := workload.AllTables(rows)
	t.end(id, nil)
	t.end(root, nil)

	for i, a := range bundles {
		b.check(sameBundle(a, ref.bundles[i]), "%s: traced replay bundle differs from the jobs.Queue bundle", names[i])
	}
	b.check(text == ref.text, "traced replay tables differ from the jobs.Queue tables")
	return b.setLayers(t, root, t.spans[root-1].dur(), untracedWall)
}

// replay runs workload.Run's pipeline for one roster entry as a sequence
// of public calls, each under its own span, and returns the encoded
// bundle and its decoded row. It follows the pipeline for the configs
// this benchmark submits: full scan, collapsed faults, ADI order, vector
// omission on T_0, ledger on, both baselines, and the random-T_0 arm
// unless cfg.SkipRandom is set. The
// callers compare its bundle with the program's own, so a drift between
// the two fails the run.
func replay(t *tracer, parent int, e gen.RosterEntry, cfg workload.Config) (*jobs.Artifacts, *workload.Row, error) {
	const (
		t0MaxLen    = 300
		randomT0Len = 1000
		omitMaxLen  = 800
	)
	seed := e.Params.Seed + cfg.Seed
	tr := e.Params.Name
	run := &workload.CircuitRun{Entry: e}

	id := t.begin(tr, parent, "gen.generate")
	c, err := gen.Generate(e.Params)
	t.end(id, nil)
	if err != nil {
		return nil, nil, err
	}
	run.Circuit = c

	id = t.begin(tr, parent, "fault.collapse")
	run.Collapsed = fault.CollapseWithMap(c)
	run.Faults = run.Collapsed.Reps
	t.end(id, map[string]float64{"reps": float64(len(run.Faults))})

	id = t.begin(tr, parent, "atpg.generate")
	run.Comb, err = atpg.Generate(c, run.Faults, atpg.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	t.end(id, map[string]float64{"tests": float64(len(run.Comb.Tests))})

	s := fsim.NewChain(c, run.Faults, nil)
	if cfg.Workers != 0 {
		s.SetWorkers(cfg.Workers)
	}
	t.sim(tr, parent, "adi.install", s, func() map[string]float64 {
		adi.Install(s, adi.Options{Seed: seed})
		return nil
	})

	var t0 *seqgen.Result
	id = t.begin(tr, parent, "seqgen.t0")
	t0 = seqgen.Generate(c, run.Faults, seqgen.Options{Seed: seed, MaxLen: t0MaxLen})
	t.end(id, map[string]float64{"length": float64(len(t0.Seq))})
	run.T0 = t0.Seq
	if len(t0.Seq) <= omitMaxLen {
		t.sim(tr, parent, "vecomit.t0", s, func() map[string]float64 {
			var st vecomit.Stats
			run.T0, st = vecomit.CompactSequence(s, t0.Seq, t0.Detected, vecomit.Options{MaxPasses: 1})
			return map[string]float64{"checks": float64(st.Checks), "free": float64(st.FreeRemovals),
				"removed": float64(st.Removed)}
		})
	}
	t.sim(tr, parent, "fsim.t0_detect", s, func() map[string]float64 {
		run.T0Detected = s.Detect(run.T0, fsim.Options{})
		return nil
	})

	t.sim(tr, parent, "scomp.base4", s, func() map[string]float64 {
		var st scomp.Stats
		run.Base4Init = scomp.FromCombTests(run.Comb.Tests)
		run.Base4Comp, st = scomp.Compact(s, run.Base4Init, scomp.Options{})
		return map[string]float64{"attempts": float64(st.Attempts), "combined": float64(st.Combined),
			"faults_simulated": float64(st.FaultsSimulated)}
	})
	t.sim(tr, parent, "dyncomp", s, func() map[string]float64 {
		var st dyncomp.Stats
		run.BaseDyn, st = dyncomp.Compact(s, run.Comb.Tests, dyncomp.Options{})
		return map[string]float64{"candidates": float64(st.Candidates), "faults_simulated": float64(st.FaultsSimulated)}
	})

	// The proposed-procedure options workload.Config's defaults select.
	opt := core.Options{SIScoreSample: 504, SICandidateLimit: 48, MaxIterations: 5}
	proposed := func(name string, t0 logic.Sequence) (*core.Result, error) {
		var res *core.Result
		var err error
		t.sim(tr, parent, name, s, func() map[string]float64 {
			if res, err = core.Run(s, run.Comb.Tests, t0, opt); err != nil {
				return nil
			}
			return coreCounters(res)
		})
		return res, err
	}
	if run.Proposed, err = proposed("core.dir", run.T0); err != nil {
		return nil, nil, err
	}
	if !cfg.SkipRandom {
		id = t.begin(tr, parent, "seqgen.random")
		randT0 := seqgen.Random(c, randomT0Len, seed+1)
		t.end(id, nil)
		if run.ProposedRand, err = proposed("core.rand", randT0); err != nil {
			return nil, nil, err
		}
	}
	run.SimStats = s.Stats()

	var a *jobs.Artifacts
	id = t.begin(tr, parent, "jobs.encode")
	a, err = jobs.EncodeRun(run)
	t.end(id, nil)
	if err != nil {
		return nil, nil, err
	}
	id = t.begin(tr, parent, "jobs.decode")
	row, err := jobs.DecodeRow(a)
	t.end(id, nil)
	return a, row, err
}

// coreCounters condenses one proposed-procedure run into span counters.
func coreCounters(r *core.Result) map[string]float64 {
	return map[string]float64{
		"phase1_s":         r.Timings.Phase1.Seconds(),
		"phase2_s":         r.Timings.Phase2.Seconds(),
		"phase3_s":         r.Timings.Phase3.Seconds(),
		"phase4_s":         r.Timings.Phase4.Seconds(),
		"omit_checks":      float64(r.OmitStats.Checks),
		"omit_removed":     float64(r.OmitStats.Removed),
		"omit_free":        float64(r.OmitStats.FreeRemovals),
		"static_attempts":  float64(r.StaticStats.Attempts),
		"static_combined":  float64(r.StaticStats.Combined),
		"faults_simulated": float64(r.OmitStats.FaultsSimulated + r.StaticStats.FaultsSimulated),
	}
}

func sameBundle(a, b *jobs.Artifacts) bool {
	if len(a.Files) != len(b.Files) {
		return false
	}
	for name, data := range a.Files {
		if !bytes.Equal(data, b.Files[name]) {
			return false
		}
	}
	return true
}

// checkTables checks one operation's output: every final test set is
// re-graded and sampled against the reference simulator, and every
// rendered circuit row must equal the one in tables_output.txt.
func (b *bench) checkTables(out *tableOut, golden map[string]string) {
	b.digest.Write([]byte(out.text))
	for _, r := range out.rows {
		b.checkRow(r)
	}
	got, _ := parseTables(out.text)
	rows := 0
	for key, row := range got {
		name := key[strings.IndexByte(key, 0)+1:]
		if _, isCircuit := gen.FindEntry(name); !isCircuit {
			continue
		}
		rows++
		b.check(golden[key] == row, "%q: row %q, tables_output.txt has %q", key, row, golden[key])
	}
	b.check(rows == 5*len(out.rows), "Tables 1-5 render %d circuit rows for %d circuits", rows, len(out.rows))
}

// checkRow re-grades both proposed arms' final sets of one decoded row on
// a fresh simulator: the count must match the row, Phase 4 must not add
// cycles, and a sample of the claimed detections must agree with the
// reference simulator in package oracle.
func (b *bench) checkRow(r *workload.Row) {
	faults := fault.CollapseWithMap(r.Circuit).Reps
	b.check(len(faults) == r.Faults, "%s: %d collapsed faults, row says %d", r.Name, len(faults), r.Faults)
	s := fsim.New(r.Circuit, faults)
	for _, arm := range []*workload.ArmRow{r.Proposed, r.Rand} {
		det := fault.NewSet(len(faults))
		for _, ts := range arm.Final.Tests {
			det.UnionWith(s.DetectTest(ts.SI, ts.Seq, nil))
		}
		b.check(det.Count() == arm.FinalDetected, "%s: final set detects %d faults, row says %d",
			r.Name, det.Count(), arm.FinalDetected)
		b.check(arm.Final.Cycles(r.Nsv) <= arm.Initial.Cycles(r.Nsv), "%s: Phase 4 added cycles", r.Name)
		rep := oracle.AuditCoverage(r.Circuit, faults, nil, arm.Final, det, nil,
			oracle.AuditOptions{SampleFaults: 16, SampleTests: 2})
		b.check(rep.Ok(), "%s: oracle audit: %s", r.Name, rep)
	}
}

// readTables parses a rendered tables file into rows keyed by table
// title and first cell.
func readTables(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseTables(string(data))
}

// parseTables maps "<table title>\x00<first cell>" to the row's cells
// joined by single spaces, so column widths do not matter.
func parseTables(text string) (map[string]string, error) {
	rows := map[string]string{}
	title := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			title = ""
		case title == "":
			title = line
		default:
			rows[title+"\x00"+f[0]] = strings.Join(f, " ")
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no table rows")
	}
	return rows, nil
}
