// Command tables regenerates the paper's Tables 1-5 over the synthetic
// benchmark roster (or a named subset).
//
// The command is a thin client of the jobs layer (internal/jobs), the
// same code path the compactd service runs: each circuit is submitted
// as one job and the tables are rendered from the resulting artifact
// bundles. With -cache, bundles persist on disk and a re-run with
// identical settings renders the tables without re-running the
// pipeline.
//
// Usage:
//
//	tables [-p N] [-cache DIR] [-universe] [-cpuprofile cpu.out] [circuit ...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	par := flag.Int("p", runtime.NumCPU(), "circuits to run in parallel")
	t0len := flag.Int("t0len", 0, "directed T0 length cap (0 = default)")
	randlen := flag.Int("randlen", 0, "random T0 length (0 = paper's 1000)")
	norand := flag.Bool("norand", false, "skip the random-T0 arm")
	delay := flag.Bool("delay", false, "also print the transition-fault coverage extension table")
	markdown := flag.Bool("md", false, "render the tables as markdown")
	pow := flag.Bool("power", false, "also print the test-power extension table")
	nodyn := flag.Bool("nodyn", false, "skip the [2,3] dynamic baseline")
	workers := flag.Int("workers", 1, "worker goroutines per fault-simulation run (0 = NumCPU; -p already parallelizes across circuits)")
	batchWords := flag.Int("batchwords", 0, "maximum kernel batch width in 64-slot words; smaller passes run narrower (0 = default)")
	order := flag.String("order", "adi", "fault simulation order: adi (accidental-detection index) or none (tables are identical)")
	collapse := flag.Bool("collapse", true, "target the structurally collapsed fault list instead of the full universe")
	check := flag.Bool("check", false, "audit every run against the scalar reference simulator (sampled; slower)")
	checkSample := flag.Int("checksample", 0, "faults re-simulated per audit direction (0 = default, -1 = all)")
	universe := flag.Bool("universe", false, "also print the uncollapsed-universe coverage extension table")
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

	cfg := workload.Config{
		T0MaxLen:    *t0len,
		RandomT0Len: *randlen,
		SkipRandom:  *norand,
		SkipDynamic: *nodyn,
		Workers:     *workers,
		BatchWords:  *batchWords,
		Order:       *order,
		Uncollapsed: !*collapse,
		Check:       *check,
		CheckSample: *checkSample,
	}
	if *workers == 0 {
		cfg.Workers = -1 // NumCPU
	}
	names := flag.Args()
	if len(names) == 0 {
		names = gen.RosterNames()
	}

	var store *jobs.Store
	if *cacheDir != "" {
		var err error
		if store, err = jobs.OpenStore(*cacheDir, 0); err != nil {
			log.Fatal(err)
		}
	}
	queue := jobs.NewQueue(store, jobs.Options{Workers: *par, MaxPending: len(names) + 1})
	defer queue.Close(context.Background())

	start := time.Now()
	// Submit every circuit, then wait: failures surface per circuit and
	// the tables still render every row that succeeded (mirroring
	// workload.RunAll's error collection).
	submitted := make([]*jobs.Job, len(names))
	var errs []error
	for i, name := range names {
		j, err := queue.Submit(jobs.Request{Roster: name, Config: cfg})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", name, err))
			continue
		}
		submitted[i] = j
	}
	rows := make([]*workload.Row, 0, len(names))
	cached := 0
	for i, j := range submitted {
		if j == nil {
			continue
		}
		if err := j.Wait(context.Background()); err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", names[i], err))
			continue
		}
		if state, _, _ := j.Snapshot(); state == jobs.StateCached {
			cached++
		}
		row, err := jobs.DecodeRow(j.Artifacts())
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", names[i], err))
			continue
		}
		rows = append(rows, row)
	}

	if *markdown {
		tabs := []interface{ RenderMarkdown() string }{
			workload.Table1(rows), workload.Table2(rows), workload.Table3(rows),
			workload.Table4(rows), workload.Table5(rows),
		}
		if *delay {
			tabs = append(tabs, workload.TableDelay(rows))
		}
		if *pow {
			tabs = append(tabs, workload.TablePower(rows))
		}
		if *universe {
			tabs = append(tabs, workload.TableUniverse(rows))
		}
		for _, t := range tabs {
			fmt.Println(t.RenderMarkdown())
		}
	} else {
		fmt.Print(workload.AllTables(rows))
		if *delay {
			fmt.Print(workload.TableDelay(rows).Render())
		}
		if *pow {
			fmt.Print(workload.TablePower(rows).Render())
		}
		if *universe {
			fmt.Print(workload.TableUniverse(rows).Render())
		}
	}
	if *check {
		fmt.Fprintln(os.Stderr, "oracle audit: all runs passed")
	}
	if cached > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d circuits served from artifact cache\n", cached, len(names))
	}
	fmt.Fprintf(os.Stderr, "completed %d circuits in %v\n", len(rows), time.Since(start).Round(time.Millisecond))
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
}
