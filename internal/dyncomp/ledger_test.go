package dyncomp

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/scan"
)

// The golden files were frozen from the retired pre-ledger engine and
// confirmed on the ledger engine before that engine was deleted;
// -update regenerates them from the ledger engine at one worker.
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// legacyFaultSlots is the FaultsSimulated total the pre-ledger engine
// (one cold re-grade of the whole remaining set per candidate) reported
// on each seed, frozen when that engine was retired.
var legacyFaultSlots = map[int64]int{31: 127458, 36: 110107}

// TestLedgerEquivalence is the dyncomp arm of the byte-identity
// contract: the ledger engine, at any worker count, scores every
// extension candidate so that the built test set, the test count, the
// extension count and the candidate count match the golden file, while
// simulating strictly fewer fault slots than the pre-ledger engine did.
func TestLedgerEquivalence(t *testing.T) {
	run := func(workers int) string {
		var sb strings.Builder
		for _, seed := range []int64{31, 36} {
			s, C, _ := setup(t, seed)
			s.SetWorkers(workers)
			out, st := Compact(s, C, Options{})
			if st.Candidates > 0 && st.FaultsSimulated >= legacyFaultSlots[seed] {
				t.Fatalf("seed=%d workers=%d: ledger simulated %d fault slots, legacy %d — no saving",
					seed, workers, st.FaultsSimulated, legacyFaultSlots[seed])
			}
			fmt.Fprintf(&sb, "# case seed=%d\n# tests=%d extensions=%d candidates=%d\n",
				seed, st.Tests, st.Extensions, st.Candidates)
			sb.WriteString(scan.WriteSetString(out))
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
