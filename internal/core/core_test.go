package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/seqgen"
)

type fixture struct {
	s      *fsim.Simulator
	C      []atpg.CombTest
	comb   *atpg.Result
	t0     *seqgen.Result
	nsv    int
	faults int
}

func newFixture(tb testing.TB, seed int64) *fixture {
	tb.Helper()
	c := gen.MustGenerate(gen.Params{Name: "fx", Seed: seed, PIs: 5, POs: 4, FFs: 12, Gates: 140})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: seed})
	if err != nil {
		tb.Fatalf("atpg: %v", err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: seed, MaxLen: 150})
	return &fixture{
		s:      fsim.New(c, faults),
		C:      comb.Tests,
		comb:   comb,
		t0:     t0,
		nsv:    c.NumFFs(),
		faults: len(faults),
	}
}

func TestRunInvariantChain(t *testing.T) {
	fx := newFixture(t, 101)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The paper's containment chain: F_0 ⊆ F_seq ⊆ initial ⊆ final coverage.
	if !res.SeqDetected.ContainsAll(res.T0Detected) {
		t.Error("F_seq must contain F_0")
	}
	if !res.InitialDetected.ContainsAll(res.SeqDetected) {
		t.Error("initial coverage must contain F_seq")
	}
	if !res.FinalDetected.ContainsAll(res.InitialDetected) {
		t.Error("Phase 4 must not lose coverage")
	}
	// Phase 3 must cover everything C can cover.
	if !res.InitialDetected.ContainsAll(fx.comb.Detected) {
		t.Error("initial set must cover every C-detectable fault")
	}
	// τ_seq is a real test.
	if res.TauSeq.Len() < 1 || res.TauSeq.Len() > res.T0Len {
		t.Errorf("tau_seq length %d outside (0, %d]", res.TauSeq.Len(), res.T0Len)
	}
	if len(res.TauSeq.SI) != fx.nsv {
		t.Errorf("scan-in width %d != %d", len(res.TauSeq.SI), fx.nsv)
	}
	// Compaction cannot increase test time.
	if res.Final.Cycles(fx.nsv) > res.Initial.Cycles(fx.nsv) {
		t.Errorf("cycles grew: %d -> %d", res.Initial.Cycles(fx.nsv), res.Final.Cycles(fx.nsv))
	}
	// The claimed detected sets match a replay of the emitted test sets.
	replay := fault.NewSet(fx.faults)
	for _, tt := range res.Initial.Tests {
		replay.UnionWith(fx.s.DetectTest(tt.SI, tt.Seq, nil))
	}
	if !replay.Equal(res.InitialDetected) {
		t.Errorf("initial replay %d != claimed %d", replay.Count(), res.InitialDetected.Count())
	}
}

func TestRunSeqDetectsMostFaults(t *testing.T) {
	// The headline property: τ_seq alone detects a large share of what
	// the whole flow detects, and more than T_0 alone.
	fx := newFixture(t, 102)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeqDetected.Count() < res.T0Detected.Count() {
		t.Error("scan-in/scan-out selection must not lose T_0 detections")
	}
	frac := float64(res.SeqDetected.Count()) / float64(res.FinalDetected.Count())
	if frac < 0.6 {
		t.Errorf("tau_seq detects only %.2f of final coverage", frac)
	}
}

func TestRunWithRandomT0(t *testing.T) {
	fx := newFixture(t, 103)
	t0 := seqgen.Random(fx.s.Circuit(), 200, 9)
	res, err := Run(fx.s, fx.C, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitialDetected.ContainsAll(fx.comb.Detected) {
		t.Error("random-T0 run must still cover all C-detectable faults")
	}
	// Random sequences detect less; Phase 3 usually adds more tests.
	if res.T0Len != 200 {
		t.Errorf("T0 length = %d, want 200", res.T0Len)
	}
}

func TestRunTraceAndTermination(t *testing.T) {
	fx := newFixture(t, 104)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no iteration trace")
	}
	for i, tr := range res.Trace {
		if tr.DetectedSI < tr.DetectedT0 {
			t.Errorf("iter %d: |F_SI| < |F_0|", i)
		}
		if tr.DetectedSO < tr.DetectedSI {
			t.Errorf("iter %d: |F_SO| < |F_SI|", i)
		}
		if tr.LenOut > tr.LenIn {
			t.Errorf("iter %d: omission grew the sequence", i)
		}
		if tr.ScanOutTime < 0 || tr.ScanOutTime >= tr.LenIn {
			t.Errorf("iter %d: scan-out time %d outside [0,%d)", i, tr.ScanOutTime, tr.LenIn)
		}
		if tr.SyncHorizon <= 0 || tr.SyncHorizon > tr.LenIn {
			t.Errorf("iter %d: sync horizon %d outside (0,%d]", i, tr.SyncHorizon, tr.LenIn)
		}
		if tr.Reused && i != len(res.Trace)-1 {
			t.Error("a reused scan-in state must terminate the iteration")
		}
	}
}

func TestRunAblations(t *testing.T) {
	fx := newFixture(t, 105)
	base, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("best prefix (i1)", func(t *testing.T) {
		res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{UseBestPrefix: true})
		if err != nil {
			t.Fatal(err)
		}
		// i1 maximizes per-iteration detection; it must not detect fewer
		// faults with tau_seq in the first iteration than i0 does.
		if res.Trace[0].DetectedSO < base.Trace[0].DetectedSO {
			t.Error("i1 first-iteration coverage below i0")
		}
		if !res.InitialDetected.ContainsAll(fx.comb.Detected) {
			t.Error("i1 run lost coverage")
		}
	})
	t.Run("no omission", func(t *testing.T) {
		res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{SkipOmission: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace[0].LenOut != res.Trace[0].ScanOutTime+1 {
			t.Error("without omission the iteration length must equal the scan-out prefix")
		}
	})
	t.Run("no static compaction", func(t *testing.T) {
		res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{SkipStaticCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final.NumTests() != res.Initial.NumTests() {
			t.Error("Phase 4 skipped but final set differs from initial")
		}
	})
	t.Run("single iteration", func(t *testing.T) {
		res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{SkipIteration: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) != 1 {
			t.Errorf("SkipIteration ran %d iterations", len(res.Trace))
		}
	})
}

func TestRunErrors(t *testing.T) {
	fx := newFixture(t, 106)
	if _, err := Run(fx.s, nil, fx.t0.Seq, Options{}); err == nil {
		t.Error("empty C must fail")
	}
	if _, err := Run(fx.s, fx.C, nil, Options{}); err == nil {
		t.Error("empty T0 must fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	fx := newFixture(t, 107)
	a, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TauSeq.Len() != b.TauSeq.Len() || a.Added != b.Added ||
		a.Final.Cycles(fx.nsv) != b.Final.Cycles(fx.nsv) {
		t.Error("Run is not deterministic")
	}
}

func TestSummarize(t *testing.T) {
	fx := newFixture(t, 108)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summarize(fx.nsv)
	if sum.T0Detected != res.T0Detected.Count() || sum.SeqLen != res.TauSeq.Len() {
		t.Error("summary fields inconsistent")
	}
	if sum.InitCycles != res.Initial.Cycles(fx.nsv) || sum.CompCycles != res.Final.Cycles(fx.nsv) {
		t.Error("summary cycles inconsistent")
	}
	if sum.CompCycles > sum.InitCycles {
		t.Error("compacted cycles exceed initial")
	}
}

func TestRunOnS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 1, MaxLen: 60})
	s := fsim.New(c, faults)
	res, err := Run(s, comb.Tests, t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalDetected.ContainsAll(comb.Detected) {
		t.Errorf("s27 final coverage %d misses C-detectable faults (%d)",
			res.FinalDetected.Count(), comb.Detected.Count())
	}
}

func TestRunUseLastIteration(t *testing.T) {
	fx := newFixture(t, 109)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{UseLastIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	// The last iteration's compacted length must equal tau_seq's length.
	last := res.Trace[len(res.Trace)-1]
	if res.TauSeq.Len() != last.LenOut {
		t.Errorf("tau_seq length %d != last iteration %d", res.TauSeq.Len(), last.LenOut)
	}
	if res.SeqDetected.Count() != last.DetectedC {
		t.Errorf("tau_seq coverage %d != last iteration %d", res.SeqDetected.Count(), last.DetectedC)
	}
	// Regardless of the rule, the overall flow still covers C.
	if !res.FinalDetected.ContainsAll(fx.comb.Detected) {
		t.Error("paper-literal rule lost coverage")
	}
}

func TestRunOnDatapathCircuit(t *testing.T) {
	// External validity: the procedure runs on the register-transfer
	// style circuits too, with the same invariants.
	c := gen.MustGenerate(gen.Params{Name: "dp", Seed: 77, Style: gen.Datapath,
		PIs: 6, POs: 4, FFs: 16, Gates: 120})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 77, MaxLen: 120})
	s := fsim.New(c, faults)
	res, err := Run(s, comb.Tests, t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalDetected.ContainsAll(comb.Detected) {
		t.Error("datapath run lost C coverage")
	}
	if res.Final.Cycles(c.NumFFs()) > res.Initial.Cycles(c.NumFFs()) {
		t.Error("phase 4 grew cycles on datapath circuit")
	}
	frac := float64(res.SeqDetected.Count()) / float64(res.FinalDetected.Count())
	t.Logf("datapath: tau_seq %d/%d (%.2f), cycles %d -> %d",
		res.SeqDetected.Count(), res.FinalDetected.Count(), frac,
		res.Initial.Cycles(c.NumFFs()), res.Final.Cycles(c.NumFFs()))
}
