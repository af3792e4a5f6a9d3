package workload

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// TestGoldenTables pins the full table output of the small test roster
// bit-for-bit: the entire pipeline is seeded, so any diff means a
// behavioural change somewhere in the stack (generator, ATPG, sequence
// search, compaction, cost model, or formatting). Run with -update to
// accept an intentional change.
func TestGoldenTables(t *testing.T) {
	runs := smallRuns(t)
	golden.Check(t, filepath.Join("testdata", "golden_tables.txt"), AllTables(Rows(runs)), *updateGolden)
}
