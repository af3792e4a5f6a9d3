package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adi"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/scan"
)

// xlEnv is the graded circuit with its simulator ready to run.
type xlEnv struct {
	c      *circuit.Circuit
	faults []fault.Fault
	s      *fsim.Simulator
}

// newXLEnv generates the circuit, collapses its faults, and builds a
// simulator with one worker per CPU and the ADI order installed.
func newXLEnv(t *tracer, parent int, name string, seed int64) (*xlEnv, error) {
	e, ok := gen.FindEntry(name)
	if !ok {
		return nil, fmt.Errorf("unknown roster circuit %q", name)
	}
	id := t.begin(name, parent, "gen.generate")
	c, err := gen.Generate(e.Params)
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	id = t.begin(name, parent, "fault.collapse")
	faults := fault.CollapseWithMap(c).Reps
	t.end(id, map[string]float64{"reps": float64(len(faults))})
	s := fsim.New(c, faults).SetWorkers(runtime.NumCPU())
	t.sim(name, parent, "adi.install", s, func() map[string]float64 {
		adi.Install(s, adi.Options{Seed: seed})
		return nil
	})
	return &xlEnv{c: c, faults: faults, s: s}, nil
}

// randomTests draws the k-th seeded set of random scan tests.
func (b *bench) randomTests(c *circuit.Circuit, k int) *scan.Set {
	r := rand.New(rand.NewSource(b.seed*1_000_003 + int64(k)))
	bit := func() logic.Value { return logic.Value(r.Intn(2)) }
	set := &scan.Set{}
	for i := 0; i < b.size.xlTests; i++ {
		si := make(logic.Vector, c.NumFFs())
		for j := range si {
			si[j] = bit()
		}
		seq := make(logic.Sequence, b.size.xlVectors)
		for u := range seq {
			seq[u] = make(logic.Vector, c.NumPIs())
			for j := range seq[u] {
				seq[u][j] = bit()
			}
		}
		set.Tests = append(set.Tests, scan.Test{SI: si, Seq: seq})
	}
	return set
}

// grade fault-simulates the tests in order with fault dropping: each test
// targets only the faults no earlier test detected. It returns the
// detected set and the tests that detected at least one new fault.
func grade(t *tracer, parent int, env *xlEnv, set *scan.Set) (*fault.Set, *scan.Set) {
	n := len(env.faults)
	detected, remaining := fault.NewSet(n), fault.NewFullSet(n)
	useful := &scan.Set{}
	for i, ts := range set.Tests {
		t.sim(fmt.Sprintf("test-%d", i), parent, "fsim.grade", env.s, func() map[string]float64 {
			d := env.s.DetectTest(ts.SI, ts.Seq, remaining)
			detected.UnionWith(d)
			remaining.SubtractWith(d)
			if d.Count() > 0 {
				useful.Tests = append(useful.Tests, ts)
			}
			return map[string]float64{"detected": float64(d.Count())}
		})
	}
	return detected, useful
}

// xlGrade grades seeded sets of random scan tests on the XL circuit with
// the simulator's worker pool, the Phase-1-style full-width grading the
// compaction pipeline starts from. Each operation grades a fresh set, so
// no operation reuses another's simulation results.
func xlGrade(b *bench) error {
	name := b.size.xlCircuit
	var env *xlEnv
	var err error
	var t *tracer
	var setup float64
	if b.traced {
		t = newTracer()
		root := t.begin(name, 0, "setup")
		env, err = newXLEnv(t, root, name, b.seed)
		t.end(root, nil)
	} else {
		setup, err = b.setup(3, func() error {
			env = nil // let the previous set-up's simulator be collected
			env, err = newXLEnv(nil, 0, name, b.seed)
			return err
		})
	}
	if err != nil {
		return err
	}
	nsv := env.c.NumFFs()

	type graded struct {
		set, useful *scan.Set
		detected    *fault.Set
	}
	var first *graded
	var ops []sample
	var detectedCounts, ncycs []float64
	gradeOp := func(k int, t *tracer, root int) (sample, *graded) {
		g := &graded{set: b.randomTests(env.c, k)}
		s, _ := measure(func() error {
			g.detected, g.useful = grade(t, root, env, g.set)
			return nil
		})
		b.check(g.detected.Count() > 0 && len(g.useful.Tests) > 0, "set %d detects no fault", k)
		b.digestSet(g.detected)
		return s, g
	}
	if b.traced {
		s, g := gradeOp(0, nil, 0)
		root := t.begin(name, 0, "workload")
		_, tg := gradeOp(0, t, root)
		t.end(root, nil)
		b.check(tg.detected.Equal(g.detected), "traced grading detects %d faults, untraced %d",
			tg.detected.Count(), g.detected.Count())
		b.auditGrade(env, g.set, g.detected)
		return b.setLayers(t, root, t.spans[root-1].dur(), s.wall)
	}
	for start := time.Now(); !b.done(ops, start); {
		s, g := gradeOp(len(ops), nil, 0)
		ops = append(ops, s)
		detectedCounts = append(detectedCounts, float64(g.detected.Count()))
		ncycs = append(ncycs, float64(g.useful.Cycles(nsv)))
		if first == nil {
			first = g
		}
	}
	b.auditGrade(env, first.set, first.detected)
	b.setOps(ops)
	b.set("setup_s", setup, "s")
	b.set("ncyc", median(ncycs), "cycles")
	b.set("detected", median(detectedCounts), "faults")
	return nil
}

// auditGrade samples the claimed detections of one graded set on the
// reference simulator in package oracle, outside the measured time.
func (b *bench) auditGrade(env *xlEnv, set *scan.Set, detected *fault.Set) {
	rep := oracle.AuditCoverage(env.c, env.faults, nil, set, detected, nil,
		oracle.AuditOptions{SampleFaults: b.size.auditFaults, SampleTests: 1})
	b.check(rep.Ok(), "oracle audit of the graded set: %s", rep)
}

// digestSet adds a detected set's fault indices to the output digest.
func (b *bench) digestSet(s *fault.Set) {
	var buf [8]byte
	s.ForEach(func(i int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		b.digest.Write(buf[:])
	})
	binary.LittleEndian.PutUint64(buf[:], ^uint64(0))
	b.digest.Write(buf[:])
}
