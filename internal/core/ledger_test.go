package core

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/scan"
	"repro/internal/scomp"
)

// The golden file was frozen from the retired pre-ledger engines and
// confirmed on the ledger engines before those were deleted; -update
// regenerates it from the ledger engines at one worker.
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestLedgerEquivalence is the whole-flow arm of the byte-identity
// contract: a full Run on the detection-ledger engines, at any worker
// count, with and without transfer sequences, reproduces the golden
// file exactly: the same τ_seq, the same initial and final test sets,
// the same detected sets and the same committed-trial counts of
// Phases 2 and 4.
func TestLedgerEquivalence(t *testing.T) {
	run := func(workers int) string {
		var sb strings.Builder
		for _, seed := range []int64{101, 107} {
			for _, xferLen := range []int{0, 4} {
				fx := newFixture(t, seed)
				fx.s.SetWorkers(workers)
				res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{
					Static: scomp.Options{TransferLen: xferLen, Seed: 404},
				})
				if err != nil {
					t.Fatalf("seed=%d xfer=%d workers=%d: %v", seed, xferLen, workers, err)
				}
				om, sc := res.OmitStats, res.StaticStats
				fmt.Fprintf(&sb, "# case seed=%d xfer=%d\n", seed, xferLen)
				fmt.Fprintf(&sb, "# omit removed=%d trials=%d\n", om.Removed, om.Checks+om.FreeRemovals)
				fmt.Fprintf(&sb, "# static combined=%d attempts=%d rounds=%d transfer_combined=%d transfer_vectors=%d\n",
					sc.Combined, sc.Attempts, sc.Rounds, sc.TransferCombined, sc.TransferVectors)
				for _, d := range []struct {
					name string
					set  *fault.Set
				}{
					{"seq", res.SeqDetected},
					{"initial", res.InitialDetected},
					{"final", res.FinalDetected},
				} {
					fmt.Fprintf(&sb, "# detected %s %v\n", d.name, d.set.Indices())
				}
				sb.WriteString("# tau_seq\n" + scan.WriteSetString(scan.NewSet(res.TauSeq)))
				sb.WriteString("# initial\n" + scan.WriteSetString(res.Initial))
				sb.WriteString("# final\n" + scan.WriteSetString(res.Final))
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
}
