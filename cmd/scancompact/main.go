// Command scancompact runs the paper's full compaction procedure on one
// circuit: combinational ATPG for C, sequential generation for T_0, the
// four phases, and a cost report. The resulting test set can be written
// in the text format of internal/scan.
//
// The command is a thin client of the jobs layer (internal/jobs) — the
// same code path the compactd service runs. With -cache, results are
// content-addressed on disk and a repeated invocation with identical
// inputs is served without re-running the pipeline.
//
// Usage:
//
//	scancompact -roster s298 [-o tests.txt]
//	scancompact -bench mydesign.bench -seed 7 -t0len 500 -cache ./cache
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/response"
	"repro/internal/scan"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scancompact: ")
	benchPath := flag.String("bench", "", "input .bench netlist")
	roster := flag.String("roster", "", "synthetic roster circuit name")
	seed := flag.Int64("seed", 1, "seed for ATPG and sequence generation")
	t0len := flag.Int("t0len", 300, "cap on the generated T0 length")
	randT0 := flag.Bool("random-t0", false, "use a random T0 (length -t0len) instead of the directed generator")
	out := flag.String("o", "", "write the final test set to this file")
	respOut := flag.String("responses", "", "write expected tester responses to this file")
	noPhase4 := flag.Bool("nophase4", false, "skip Phase 4 static compaction")
	scanFFs := flag.Int("scan", 0, "partial scan: scan only the first N flip-flops (0 = full scan)")
	workers := flag.Int("workers", 0, "worker goroutines per fault-simulation run (0 = NumCPU, 1 = serial)")
	batchWords := flag.Int("batchwords", 0, "maximum kernel batch width in 64-slot words; smaller passes run narrower (0 = default)")
	order := flag.String("order", "adi", "fault simulation order: adi (accidental-detection index) or none (results are identical)")
	collapse := flag.Bool("collapse", true, "target the structurally collapsed fault list instead of the full universe")
	check := flag.Bool("check", false, "audit the result against the scalar reference simulator (sampled)")
	checkSample := flag.Int("checksample", 0, "faults re-simulated per audit direction (0 = default, -1 = all)")
	cacheDir := flag.String("cache", "", "artifact cache directory (empty = no caching)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	c, err := cliutil.LoadCircuit(*benchPath, *roster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Stats())

	cfg := workload.Config{
		Seed:          *seed,
		T0MaxLen:      *t0len,
		Workers:       *workers,
		BatchWords:    *batchWords,
		Order:         *order,
		Uncollapsed:   !*collapse,
		Check:         *check,
		CheckSample:   *checkSample,
		ScanFFs:       *scanFFs,
		SkipBaselines: true,
		SkipDynamic:   true,
		Core:          core.Options{SkipStaticCompaction: *noPhase4},
	}
	if *workers == 0 {
		cfg.Workers = -1 // NumCPU
	}
	// The command runs exactly one arm: directed T_0 by default, random
	// T_0 (length -t0len) with -random-t0.
	if *randT0 {
		cfg.SkipDirected = true
		cfg.RandomT0Len = *t0len
	} else {
		cfg.SkipRandom = true
	}
	if 0 < *scanFFs && *scanFFs < c.NumFFs() {
		fmt.Printf("partial scan: %d of %d flip-flops\n", *scanFFs, c.NumFFs())
	}

	var store *jobs.Store
	if *cacheDir != "" {
		if store, err = jobs.OpenStore(*cacheDir, 0); err != nil {
			log.Fatal(err)
		}
	}
	queue := jobs.NewQueue(store, jobs.Options{Workers: 1})
	defer queue.Close(context.Background())

	job, err := queue.Submit(jobs.Request{Circuit: c, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		log.Fatal(err)
	}
	state, _, _ := job.Snapshot()
	if state == jobs.StateCached {
		fmt.Printf("served from artifact cache (%s)\n", job.Key)
	}
	row, err := jobs.DecodeRow(job.Artifacts())
	if err != nil {
		log.Fatal(err)
	}

	if row.CollapsedUniverse > 0 {
		fmt.Printf("collapsed stuck-at faults: %d of %d total (ratio %.2f)\n",
			row.Faults, row.CollapsedUniverse, float64(row.Faults)/float64(row.CollapsedUniverse))
	} else {
		fmt.Printf("stuck-at faults: %d (uncollapsed)\n", row.Faults)
	}
	fmt.Printf("combinational test set C: %d tests, %d detected, %d untestable, %d aborted\n",
		row.CombTests, row.CombDetected, row.CombUntestable, row.CombAborted)

	arm := row.Proposed
	if *randT0 {
		arm = row.Rand
	}
	if arm == nil {
		log.Fatal("internal error: pipeline produced no result arm")
	}
	fmt.Printf("T0: %d vectors\n", arm.T0Len)
	if *check {
		fmt.Println("oracle audit: passed")
	}
	fmt.Printf("faults detected: T0 %d, tau_seq %d, final %d / %d\n",
		arm.T0Detected, arm.SeqDetected, arm.FinalDetected, row.Faults)
	fmt.Printf("tau_seq: scan-in + %d at-speed vectors; %d length-1 tests added\n",
		arm.SeqLen, arm.Added)
	fmt.Printf("test application: initial %d cycles, compacted %d cycles (%d tests)\n",
		arm.Initial.Cycles(row.Nsv), arm.Final.Cycles(row.Nsv), arm.Final.NumTests())
	fmt.Printf("at-speed sequence lengths: %s\n", arm.Final.AtSpeed())

	if *out != "" {
		if err := writeSet(*out, arm.Final); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *respOut != "" {
		chain, err := cfg.Chain(c)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if err := response.Write(&buf, arm.Final, response.ForSet(c, chain, arm.Final)); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*respOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *respOut)
	}
}

func writeSet(path string, s *scan.Set) error {
	var buf bytes.Buffer
	if err := scan.WriteSet(&buf, s); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
