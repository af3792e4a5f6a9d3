// External test package: see oracle_test.go for the import-cycle note.
package vecomit_test

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/golden"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/scan"
	"repro/internal/vecomit"
)

func randomTest(r *rand.Rand, nsv, npi, length int) scan.Test {
	tst := scan.Test{SI: make(logic.Vector, nsv)}
	for i := range tst.SI {
		tst.SI[i] = logic.Value(r.Intn(2))
	}
	for u := 0; u < length; u++ {
		v := make(logic.Vector, npi)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		tst.Seq = append(tst.Seq, v)
	}
	return tst
}

// The golden files were frozen from the retired pre-ledger engine and
// confirmed on the ledger engine before that engine was deleted;
// -update regenerates them from the ledger engine at one worker.
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// ledgerCase renders one compaction result for a golden file: a header
// naming the case and the committed-trial counts, then the output. The
// ledger may turn a Check into a FreeRemoval (its exact risk set can be
// empty where a conservative superset is not), so the invariant trial
// count is Checks + FreeRemovals.
func ledgerCase(sb *strings.Builder, name string, st vecomit.Stats) {
	fmt.Fprintf(sb, "# case %s\n# removed=%d trials=%d\n", name, st.Removed, st.Checks+st.FreeRemovals)
}

// TestLedgerEquivalence is the vecomit arm of the byte-identity
// contract: the ledger engine, at any worker count and under full and
// partial scan, commits exactly the removals recorded in the golden
// file. The output is additionally re-verified against the reference
// simulator, and the free-removal short-circuit must actually fire
// somewhere in the sweep (otherwise the ledger would be measuring
// nothing).
func TestLedgerEquivalence(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "vl", Seed: 41, PIs: 4, POs: 3, FFs: 10, Gates: 110})
	faults := fault.Collapse(c)

	half := make([]int, c.NumFFs()/2)
	for i := range half {
		half[i] = 2 * i
	}
	partial, err := scan.NewChain(c.NumFFs(), half)
	if err != nil {
		t.Fatal(err)
	}

	totalFree := 0
	run := func(workers int) string {
		var sb strings.Builder
		for _, chain := range []*scan.Chain{nil, partial} {
			nsv := c.NumFFs()
			if chain != nil {
				nsv = len(chain.FFs)
			}
			orc := oracle.NewChain(c, faults, chain)
			for _, seed := range []int64{3, 19} {
				r := rand.New(rand.NewSource(seed))
				tst := randomTest(r, nsv, c.NumPIs(), 16)
				name := fmt.Sprintf("chain=%v seed=%d", chain != nil, seed)

				s := fsim.NewChain(c, faults, chain).SetWorkers(workers)
				keep := s.DetectTest(tst.SI, tst.Seq, nil)
				got, st := vecomit.CompactTest(s, tst, keep, vecomit.Options{})
				if after := orc.DetectTest(got.SI, got.Seq, nil); !after.ContainsAll(keep) {
					t.Fatalf("%s workers=%d: oracle says the compacted test lost coverage", name, workers)
				}
				totalFree += st.FreeRemovals
				ledgerCase(&sb, name, st)
				sb.WriteString(scan.WriteSetString(scan.NewSet(got)))
			}
		}
		return sb.String()
	}

	path := filepath.Join("testdata", t.Name()+".golden")
	if *update {
		golden.Check(t, path, run(1), true)
		return
	}
	for _, workers := range []int{1, 4} {
		golden.Check(t, path, run(workers), false)
	}
	if totalFree == 0 {
		t.Fatal("free-removal short-circuit never fired across the sweep")
	}
}

// TestLedgerEquivalenceSequence repeats the check for the no-scan role
// (conditioning T_0): PO-only detection, no scan-in state.
func TestLedgerEquivalenceSequence(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "vls", Seed: 42, PIs: 3, POs: 3, FFs: 6, Gates: 80})
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(23))
	tst := randomTest(r, 0, c.NumPIs(), 18)

	run := func(workers int) string {
		s := fsim.New(c, faults).SetWorkers(workers)
		keep := s.Detect(tst.Seq, fsim.Options{})
		got, st := vecomit.CompactSequence(s, tst.Seq, keep, vecomit.Options{})
		var sb strings.Builder
		ledgerCase(&sb, "no-scan", st)
		if err := scan.WriteSequence(&sb, got); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	path := filepath.Join("testdata", t.Name()+".golden")
	if *update {
		golden.Check(t, path, run(1), true)
		return
	}
	for _, workers := range []int{1, 4} {
		golden.Check(t, path, run(workers), false)
	}
}
