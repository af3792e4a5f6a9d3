package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adi"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

// sweepCircuits are the roster entries the differential sweep covers —
// a spread of PI/FF counts so partial scan, wide scan-in vectors and
// deep sequential propagation all occur.
var sweepCircuits = []string{"b01", "b02", "b06", "s298", "s344"}

// TestDifferentialSweep is the acceptance sweep: for every roster
// circuit × seed × scan configuration × worker count, the optimized
// parallel-fault simulator and the scalar reference must produce
// identical hard and potential detection sets. Each configuration is
// graded three times with the same key so the fsim trace cache walks its
// miss → repeat-miss (trace computed) → hit path; the sets must not
// change across repetitions. An X-run arm checks the cut scan-in
// replays of fsim.XRun against the oracle over random scan-ins, and a
// checkpointed-trial arm checks fsim.DetectsAllAfter on a random pair
// (SI_i, T_i·T_j) of a small test pool (see checkAfter).
func TestDifferentialSweep(t *testing.T) {
	for _, name := range sweepCircuits {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for i := 0; i < c.NumFFs()/2; i++ {
			half = append(half, i)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for ci, chain := range []*scan.Chain{nil, partial} {
				for _, workers := range []int{1, 4} {
					cname := "full"
					if chain != nil {
						cname = "partial"
					}
					t.Run(fmt.Sprintf("%s/seed%d/%s/w%d", name, seed, cname, workers), func(t *testing.T) {
						t.Parallel()
						r := rand.New(rand.NewSource(seed*1000 + int64(ci)))
						fs := fsim.NewChain(c, faults, chain).SetWorkers(workers)
						orc := NewChain(c, faults, chain)

						si := randVec(r, orc.Nsv(), true)
						seq := randSeq(r, 8+r.Intn(5), c.NumPIs(), true)

						opot := fault.NewSet(len(faults))
						want := orc.Detect(seq, Options{Init: si, ScanOut: true, Potential: opot})
						for rep := 0; rep < 3; rep++ {
							fpot := fault.NewSet(len(faults))
							got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true, Potential: fpot})
							if !got.Equal(want) {
								t.Fatalf("rep %d: hard sets differ: fsim %d, oracle %d",
									rep, got.Count(), want.Count())
							}
							if !fpot.Equal(opot) {
								t.Fatalf("rep %d: potential sets differ: fsim %d, oracle %d",
									rep, fpot.Count(), opot.Count())
							}
							// Standard mode (no Potential) takes the early-exit
							// paths fsim disables in Potential mode.
							if got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true}); !got.Equal(want) {
								t.Fatalf("rep %d: standard-mode set differs", rep)
							}
						}

						// No-scan sequence grading (the T_0 arm of the paper).
						nsWant := orc.Detect(seq, Options{})
						if nsGot := fs.Detect(seq, fsim.Options{}); !nsGot.Equal(nsWant) {
							t.Fatalf("no-scan sets differ: fsim %d, oracle %d",
								nsGot.Count(), nsWant.Count())
						}

						// X-run arm (Phase 1's scan-in selection): replays cut
						// at the all-X sync points, on the sweep sequence and
						// on a longer binary one that lets most machines
						// synchronize before its end, over random scan-ins.
						xr := fs.RunX(seq, nil)
						if !xr.Detected().Equal(nsWant) || !xr.DetectTest(si, nil).Equal(want) {
							t.Fatal("X run: sets differ from the oracle on the sweep sequence")
						}
						long := randSeq(r, 24, c.NumPIs(), false)
						xr = fs.RunX(long, nil)
						if lw := orc.Detect(long, Options{}); !xr.Detected().Equal(lw) {
							t.Fatalf("X run: all-X sets differ: fsim %d, oracle %d", xr.Detected().Count(), lw.Count())
						}
						for k := 0; k < 2; k++ {
							xsi := randVec(r, orc.Nsv(), k > 0)
							if got, lw := xr.DetectTest(xsi, nil), orc.DetectTest(xsi, long, nil); !got.Equal(lw) {
								t.Fatalf("X run: scan-in %v: fsim %d, oracle %d", xsi, got.Count(), lw.Count())
							}
						}

						// Checkpointed-trial arm (the combination trials of
						// [4]): (SI_i, T_i·T_j) for a random pair of a small
						// test pool, continued from a checkpoint of τ_i.
						pool := []scan.Test{
							{SI: si, Seq: seq},
							{SI: randVec(r, orc.Nsv(), false), Seq: long},
							{SI: randVec(r, orc.Nsv(), true), Seq: randSeq(r, 3, c.NumPIs(), true)},
						}
						i := r.Intn(len(pool))
						j := (i + 1 + r.Intn(len(pool)-1)) % len(pool)
						checkAfter(t, fs, orc, r, pool[i].SI, pool[i].Seq, pool[j].Seq)
					})
				}
			}
		}
	}
}

// checkAfter checks fsim's checkpointed combination trial against the
// oracle's full replay of the scan test (si, pre·suf): DetectsAllAfter
// from a checkpoint of (si, pre) must answer every single-fault must set
// as the oracle does, accept a random subset of the oracle's detections
// and reject that subset plus one undetected fault — without an X run of
// suf, with a full one, and with one targeted at the even-indexed faults
// (the odd ones then replay the whole suffix).
func checkAfter(t *testing.T, fs *fsim.Simulator, orc *Sim, r *rand.Rand, si logic.Vector, pre, suf logic.Sequence) {
	t.Helper()
	nf := len(orc.Faults())
	want := orc.DetectTest(si, append(pre.Clone(), suf.Clone()...), nil)
	even := fault.NewSet(nf)
	for f := 0; f < nf; f += 2 {
		even.Add(f)
	}
	var undetected []int
	for f := 0; f < nf; f++ {
		if !want.Has(f) {
			undetected = append(undetected, f)
		}
	}
	p := fs.NewPrefix(si, pre)
	one := fault.NewSet(nf)
	for xi, x := range []*fsim.XRun{nil, fs.RunX(suf, nil), fs.RunX(suf, even)} {
		for f := 0; f < nf; f++ {
			one.Clear()
			one.Add(f)
			if got := fs.DetectsAllAfter(p, suf, x, one); got != want.Has(f) {
				t.Fatalf("checkpointed trial, X run #%d, |T_i|=%d |T_j|=%d: fault %d detected %v, oracle %v",
					xi, len(pre), len(suf), f, got, want.Has(f))
			}
		}
		must := fault.NewSet(nf)
		want.ForEach(func(f int) {
			if r.Intn(2) == 0 {
				must.Add(f)
			}
		})
		if !fs.DetectsAllAfter(p, suf, x, must) {
			t.Fatalf("checkpointed trial, X run #%d: rejects a subset of the oracle's detections", xi)
		}
		if len(undetected) > 0 {
			must.Add(undetected[r.Intn(len(undetected))])
			if fs.DetectsAllAfter(p, suf, x, must) {
				t.Fatalf("checkpointed trial, X run #%d: accepts an undetected fault", xi)
			}
		}
	}
}

// TestDifferentialBatchWidths sweeps the compiled kernel's batch width
// against the scalar reference on roster circuits large enough that the
// kernel path genuinely engages (several hundred collapsed faults):
// 64-slot, 256-slot and 512-slot passes must all grade
// identically, under full and partial scan, with and without a cached
// good trace.
func TestDifferentialBatchWidths(t *testing.T) {
	for _, name := range []string{"s298", "s344", "b04"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for i := 0; i < c.NumFFs()/2; i++ {
			half = append(half, i)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for ci, chain := range []*scan.Chain{nil, partial} {
			cname := "full"
			if chain != nil {
				cname = "partial"
			}
			t.Run(fmt.Sprintf("%s/%s", name, cname), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(int64(31 + ci)))
				orc := NewChain(c, faults, chain)
				si := randVec(r, orc.Nsv(), true)
				seq := randSeq(r, 10, c.NumPIs(), true)
				opot := fault.NewSet(len(faults))
				want := orc.Detect(seq, Options{Init: si, ScanOut: true, Potential: opot})
				for _, words := range []int{1, 4, 8} {
					fs := fsim.NewChain(c, faults, chain).SetBatchWords(words)
					for rep := 0; rep < 2; rep++ {
						fpot := fault.NewSet(len(faults))
						got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true, Potential: fpot})
						if !got.Equal(want) || !fpot.Equal(opot) {
							t.Fatalf("words=%d rep=%d: sets differ from oracle (hard %d/%d, potential %d/%d)",
								words, rep, got.Count(), want.Count(), fpot.Count(), opot.Count())
						}
					}
				}
			})
		}
	}
}

// TestDifferentialGenerated drives the comparison on freshly generated
// circuits outside the roster, so the sweep is not tied to the roster's
// generator parameters.
func TestDifferentialGenerated(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("gen%d", trial), func(t *testing.T) {
			t.Parallel()
			c := gen.MustGenerate(gen.Params{
				Name: fmt.Sprintf("diff%d", trial), Seed: int64(900 + trial),
				PIs: 2 + trial, POs: 2 + trial%2, FFs: 3 + 2*trial, Gates: 30 + 25*trial,
			})
			faults := fault.Collapse(c)
			fs := fsim.New(c, faults).SetWorkers(1 + trial%2*3)
			orc := New(c, faults)
			r := rand.New(rand.NewSource(int64(77 + trial)))
			for rep := 0; rep < 3; rep++ {
				si := randVec(r, c.NumFFs(), true)
				seq := randSeq(r, 6+r.Intn(6), c.NumPIs(), true)
				fpot := fault.NewSet(len(faults))
				opot := fault.NewSet(len(faults))
				got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true, Potential: fpot})
				want := orc.Detect(seq, Options{Init: si, ScanOut: true, Potential: opot})
				if !got.Equal(want) || !fpot.Equal(opot) {
					t.Fatalf("rep %d: sets differ (hard %d/%d, potential %d/%d)",
						rep, got.Count(), want.Count(), fpot.Count(), opot.Count())
				}
			}
		})
	}
}

// TestDifferentialOrdered reruns the sweep with an ADI-installed
// traversal order on the optimized simulator: ordering is a scheduling
// permutation inside fsim, so the detected and potential sets must stay
// bit-identical to the scalar reference across circuits, seeds, worker
// counts and batch widths — including the survivor-repacking path that
// ordered dropping enables.
func TestDifferentialOrdered(t *testing.T) {
	for _, name := range sweepCircuits {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		for seed := int64(1); seed <= 2; seed++ {
			for _, workers := range []int{1, 4} {
				for _, words := range []int{0, 4} {
					t.Run(fmt.Sprintf("%s/seed%d/w%d/bw%d", name, seed, workers, words), func(t *testing.T) {
						t.Parallel()
						r := rand.New(rand.NewSource(seed * 313))
						fs := fsim.New(c, faults).SetWorkers(workers).SetBatchWords(words)
						adi.Install(fs, adi.Options{Seed: seed})
						orc := New(c, faults)

						si := randVec(r, orc.Nsv(), true)
						seq := randSeq(r, 8+r.Intn(5), c.NumPIs(), true)

						fpot := fault.NewSet(len(faults))
						opot := fault.NewSet(len(faults))
						got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true, Potential: fpot})
						want := orc.Detect(seq, Options{Init: si, ScanOut: true, Potential: opot})
						if !got.Equal(want) || !fpot.Equal(opot) {
							t.Fatalf("ordered sets differ from oracle (hard %d/%d, potential %d/%d)",
								got.Count(), want.Count(), fpot.Count(), opot.Count())
						}
						// Long no-scan sequence: the repacking fast path fires
						// here; results must not change.
						long := randSeq(r, 40, c.NumPIs(), true)
						if g, w := fs.Detect(long, fsim.Options{}), orc.Detect(long, Options{}); !g.Equal(w) {
							t.Fatalf("ordered no-scan sets differ: fsim %d, oracle %d", g.Count(), w.Count())
						}
					})
				}
			}
		}
	}
}

// TestDifferentialCollapsedExpansion validates the other half of the
// fast path: simulating only the collapsed representatives and expanding
// each detected representative to its equivalence class must reproduce,
// fault for fault, the detection set of simulating the entire uncollapsed
// universe — on both the optimized simulator and the scalar reference.
func TestDifferentialCollapsedExpansion(t *testing.T) {
	for _, name := range sweepCircuits {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, ok := gen.RosterCircuit(name)
			if !ok {
				t.Fatalf("unknown roster circuit %q", name)
			}
			cc := fault.CollapseWithMap(c)
			reps := fsim.New(c, cc.Reps).SetWorkers(2)
			adi.Install(reps, adi.Options{Seed: 5})
			full := fsim.New(c, cc.Universe)
			orc := New(c, cc.Universe)

			r := rand.New(rand.NewSource(41))
			for rep := 0; rep < 3; rep++ {
				si := randVec(r, c.NumFFs(), true)
				seq := randSeq(r, 6+r.Intn(6), c.NumPIs(), true)

				expanded := cc.ExpandSet(reps.Detect(seq, fsim.Options{Init: si, ScanOut: true}))
				direct := full.Detect(seq, fsim.Options{Init: si, ScanOut: true})
				want := orc.Detect(seq, Options{Init: si, ScanOut: true})
				if !direct.Equal(want) {
					t.Fatalf("rep %d: universe fsim differs from oracle (%d vs %d)",
						rep, direct.Count(), want.Count())
				}
				if !expanded.Equal(want) {
					t.Fatalf("rep %d: expanded collapsed set differs from universe (%d vs %d)",
						rep, expanded.Count(), want.Count())
				}
				if got, wantN := cc.ExpandCount(reps.Detect(seq, fsim.Options{Init: si, ScanOut: true})), want.Count(); got != wantN {
					t.Fatalf("rep %d: ExpandCount %d, universe count %d", rep, got, wantN)
				}
			}
		})
	}
}
