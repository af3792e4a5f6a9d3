package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// goldenCfg pins every seed-bearing knob so the output is reproducible.
func goldenCfg() workload.Config {
	return workload.Config{T0MaxLen: 80, RandomT0Len: 150}
}

var goldenNames = []string{"b01", "b02", "b06"}

// render produces everything the command can print: the paper's five
// tables plus all three extension tables.
func render(runs []*workload.CircuitRun) string {
	return workload.AllTables(workload.Rows(runs)) +
		workload.TableDelay(workload.Rows(runs)).Render() +
		workload.TablePower(workload.Rows(runs)).Render() +
		workload.TableUniverse(workload.Rows(runs)).Render()
}

// TestGoldenTables regenerates all tables at fixed seeds and diffs them
// against the checked-in golden file, catching silent output drift the
// qualitative pipeline tests cannot see. Refresh with -update.
func TestGoldenTables(t *testing.T) {
	runs, err := workload.RunAll(goldenNames, goldenCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "tables.golden"), render(runs), *update)
}

// TestGoldenTablesWithCheck re-runs the golden workload with the oracle
// audit enabled: the audit must pass and the table output must be
// byte-identical to the unchecked run — checking is observation, not
// behaviour.
func TestGoldenTablesWithCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("audited pipeline run is slow")
	}
	cfg := goldenCfg()
	cfg.Check = true
	runs, err := workload.RunAll(goldenNames, cfg, 2)
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	got := render(runs)
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Skipf("golden file missing: %v", err)
	}
	if got != string(want) {
		t.Error("-check changed the table output")
	}
}
