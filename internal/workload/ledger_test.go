package workload

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestLedgerInvariance is the workload arm of the byte-identity
// contract: every rendered table of a pipeline run on the detection-
// ledger engines — including the universe-coverage extension — matches
// the golden file, under full and partial scan, at any worker count.
// The golden files were frozen from the retired pre-ledger engines and
// confirmed on the ledger engines before those were deleted; -update
// regenerates them from the ledger engines at one worker. The per-engine
// arms live in vecomit, scomp, dyncomp and core.
func TestLedgerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, name := range []string{"b01"} {
		for _, scanFFs := range []int{0, 3} {
			name, scanFFs := name, scanFFs
			t.Run(fmt.Sprintf("%s/scanffs=%d", name, scanFFs), func(t *testing.T) {
				t.Parallel()
				render := func(workers int) string {
					cfg := Config{T0MaxLen: 80, RandomT0Len: 150, ScanFFs: scanFFs, Workers: workers}
					run, err := RunByName(name, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rows := Rows([]*CircuitRun{run})
					return AllTables(rows) + TableUniverse(rows).Render()
				}
				path := filepath.Join("testdata", fmt.Sprintf("ledger_%s_scanffs%d.golden", name, scanFFs))
				if *updateGolden {
					golden.Check(t, path, render(1), true)
					return
				}
				for _, workers := range []int{1, 4} {
					golden.Check(t, path, render(workers), false)
				}
			})
		}
	}
}
