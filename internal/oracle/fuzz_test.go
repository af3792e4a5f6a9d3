package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/vecomit"
)

// corpusTest builds a deterministic seed test for a sample circuit.
func corpusTest(c *circuit.Circuit, cycles int) scan.Test {
	t := scan.Test{SI: make(logic.Vector, c.NumFFs())}
	for i := range t.SI {
		t.SI[i] = logic.Value(i % 2)
	}
	for u := 0; u < cycles; u++ {
		v := make(logic.Vector, c.NumPIs())
		for i := range v {
			v[i] = logic.Value((u + i) % 3 % 2)
			if (u+i)%5 == 4 {
				v[i] = logic.X
			}
		}
		t.Seq = append(t.Seq, v)
	}
	return t
}

func corpusCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		samples.S27(), samples.Toggle(), samples.ShiftReg(3), samples.Comb4(),
	}
}

// TestFuzzEncodeRoundtrip checks that the corpus seeds decode back to
// behaviorally identical circuits: same interface counts and the same
// good-machine response on the encoded test.
func TestFuzzEncodeRoundtrip(t *testing.T) {
	for _, c := range corpusCircuits() {
		tst := corpusTest(c, 5)
		data, err := EncodeFuzz(c, tst)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name, err)
		}
		dc, dt, err := DecodeFuzz(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if dc.NumPIs() != c.NumPIs() || dc.NumFFs() != c.NumFFs() || dc.NumPOs() != c.NumPOs() {
			t.Fatalf("%s: interface changed: %d/%d/%d → %d/%d/%d", c.Name,
				c.NumPIs(), c.NumFFs(), c.NumPOs(), dc.NumPIs(), dc.NumFFs(), dc.NumPOs())
		}
		want := New(c, nil).GoodResponse(tst)
		got := New(dc, nil).GoodResponse(dt)
		if !responsesEqual(want, got) {
			t.Fatalf("%s: decoded circuit responds differently", c.Name)
		}
	}
}

// FuzzDifferential cross-checks fsim against the oracle on fuzzer-shaped
// circuits and tests, in both standard and Potential mode, serial and
// with a worker pool, checks the X-run cut replays (fsim.RunX) from the
// fuzzed scan-in and its complement and the checkpointed combination
// trials (fsim.DetectsAllAfter) on the two halves of the fuzzed
// sequence, and then runs Phase 2 vector
// omission serially and with a worker pool: the oracle must confirm the
// compacted test still detects every fault the original did, both runs
// must produce the byte-identical test, and Removed must equal the drop
// in length. Any byte string is a valid input; the decoder guarantees a
// well-formed netlist.
func FuzzDifferential(f *testing.F) {
	for _, c := range corpusCircuits() {
		if data, err := EncodeFuzz(c, corpusTest(c, 6)); err == nil {
			f.Add(data)
		} else {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := fault.Collapse(c)
		orc := New(c, faults)
		opot := fault.NewSet(len(faults))
		want := orc.Detect(tst.Seq, Options{Init: tst.SI, ScanOut: true, Potential: opot})
		nsWant := orc.Detect(tst.Seq, Options{})
		notSI := make(logic.Vector, len(tst.SI))
		for i, v := range tst.SI {
			notSI[i] = v.Not()
		}
		notWant := orc.DetectTest(notSI, tst.Seq, nil)
		for _, workers := range []int{1, 4} {
			fs := fsim.New(c, faults).SetWorkers(workers)
			fpot := fault.NewSet(len(faults))
			got := fs.Detect(tst.Seq, fsim.Options{Init: tst.SI, ScanOut: true, Potential: fpot})
			if !got.Equal(want) {
				t.Fatalf("workers=%d: hard sets differ: fsim %v, oracle %v",
					workers, got.Indices(), want.Indices())
			}
			if !fpot.Equal(opot) {
				t.Fatalf("workers=%d: potential sets differ: fsim %v, oracle %v",
					workers, fpot.Indices(), opot.Indices())
			}
			if got := fs.Detect(tst.Seq, fsim.Options{Init: tst.SI, ScanOut: true}); !got.Equal(want) {
				t.Fatalf("workers=%d: standard-mode set differs", workers)
			}
			// X-run arm: the replay cut at the all-X sync points must
			// match the oracle from the fuzzed scan-in and from its
			// complement.
			xr := fs.RunX(tst.Seq, nil)
			if got := xr.Detected(); !got.Equal(nsWant) {
				t.Fatalf("workers=%d: X run: all-X sets differ: fsim %v, oracle %v",
					workers, got.Indices(), nsWant.Indices())
			}
			if got := xr.DetectTest(tst.SI, nil); !got.Equal(want) {
				t.Fatalf("workers=%d: X run: fsim %v, oracle %v", workers, got.Indices(), want.Indices())
			}
			if got := xr.DetectTest(notSI, nil); !got.Equal(notWant) {
				t.Fatalf("workers=%d: X run from the complement: fsim %v, oracle %v",
					workers, got.Indices(), notWant.Indices())
			}
			// Checkpointed-trial arm: split the fuzzed sequence into two
			// tests and combine them both ways, from the fuzzed scan-in
			// and from its complement.
			if k := (len(tst.Seq) + 1) / 2; k < len(tst.Seq) {
				r := rand.New(rand.NewSource(int64(len(data))))
				checkAfter(t, fs, orc, r, tst.SI, tst.Seq[:k], tst.Seq[k:])
				checkAfter(t, fs, orc, r, notSI, tst.Seq[k:], tst.Seq[:k])
			}
		}

		// Compaction check: Phase 2 vector omission must keep every
		// fault of keep detected according to the oracle, produce the
		// identical test at every worker count, and report exactly the
		// removals it made.
		var ref scan.Test
		for _, workers := range []int{1, 4} {
			fs := fsim.New(c, faults).SetWorkers(workers)
			keep := fs.DetectTest(tst.SI, tst.Seq, nil)
			got, st := vecomit.CompactTest(fs, tst, keep, vecomit.Options{})
			if after := orc.DetectTest(got.SI, got.Seq, nil); !after.ContainsAll(keep) {
				t.Fatalf("workers=%d: oracle says the compacted test lost coverage", workers)
			}
			if st.Removed != len(tst.Seq)-len(got.Seq) {
				t.Fatalf("workers=%d: Removed = %d, but the test shrank from %d to %d vectors",
					workers, st.Removed, len(tst.Seq), len(got.Seq))
			}
			if workers == 1 {
				ref = got
				continue
			}
			if scan.WriteSetString(scan.NewSet(got)) != scan.WriteSetString(scan.NewSet(ref)) {
				t.Fatalf("workers=%d: compacted test differs from workers=1", workers)
			}
		}
	})
}

// FuzzKernelDifferential cross-checks the compiled batch kernel against
// the interpreter engine node for node on fuzzer-shaped circuits, at
// widths 1, 2 and 4 so each of the kernel's loops (the one-word and
// four-word specializations and the generic loop) is stressed. The
// faults go straight into BatchEngine injections spread over every word
// of the batch — bypassing fsim's adaptive width, which would pick one
// word on circuits this small — so the kernel's compile/schedule/patch
// machinery itself is what the fuzzer stresses.
func FuzzKernelDifferential(f *testing.F) {
	for _, c := range corpusCircuits() {
		if data, err := EncodeFuzz(c, corpusTest(c, 6)); err == nil {
			f.Add(data)
		} else {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := fault.Collapse(c)
		p := sim.Compile(c)
		for _, words := range []int{1, 2, 4} {
			kernelDiff(t, c, p, faults, tst, words)
		}
	})
}

// kernelDiff runs tst on a words-wide BatchEngine carrying faults and on
// one interpreter Engine per word carrying that word's faults, and
// fails on the first node whose values differ.
func kernelDiff(t *testing.T, c *circuit.Circuit, p *sim.Program, faults []fault.Fault, tst scan.Test, words int) {
	be := sim.NewBatch(p, words)
	injs := make([]sim.BatchInjection, 0, len(faults))
	perWord := make([][]sim.Injection, words)
	for i, fl := range faults {
		slot := 1 + i%(64*words-1)
		mask := make([]uint64, words)
		mask[slot>>6] = 1 << (uint(slot) & 63)
		injs = append(injs, sim.BatchInjection{Node: fl.Node, Pin: fl.Pin, Stuck: fl.Stuck, Mask: mask})
		perWord[slot>>6] = append(perWord[slot>>6], fl.Injection(mask[slot>>6]))
	}
	be.SetInjections(injs)
	be.SetStateVector(tst.SI)
	engines := make([]*sim.Engine, words)
	for j := range engines {
		engines[j] = sim.New(c)
		engines[j].SetInjections(perWord[j])
		engines[j].SetStateVector(tst.SI)
	}
	for u, vec := range tst.Seq {
		be.SetPIVector(vec)
		be.EvalComb()
		for j, eng := range engines {
			eng.SetPIVector(vec)
			eng.EvalComb()
			for n := 0; n < c.NumNodes(); n++ {
				if be.Val(n)[j] != eng.Val(n) {
					t.Fatalf("w=%d u=%d eval node %d (%s) word %d: kernel %+v, engine %+v",
						words, u, n, c.Nodes[n].Name, j, be.Val(n)[j], eng.Val(n))
				}
			}
		}
		be.ClockFF()
		for j, eng := range engines {
			eng.ClockFF()
			for n := 0; n < c.NumNodes(); n++ {
				if be.Val(n)[j] != eng.Val(n) {
					t.Fatalf("w=%d u=%d clock node %d word %d: kernel %+v, engine %+v",
						words, u, n, j, be.Val(n)[j], eng.Val(n))
				}
			}
		}
	}
}
