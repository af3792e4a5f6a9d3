// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload through the repository's public packages, checks the
// workload's outputs, and prints one JSON result as its last line:
//
//	benchmark -workload table-mid -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run, and the spans are
// written to the -out directory. README.md lists the workloads and
// every metric; run.sh builds and runs the command from a checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes fixes how much work each workload does. The benchmark runs
// fullSizes; the smoke test runs the same code at tiny sizes.
type sizes struct {
	tableCircuits []string

	xlCircuit   string
	xlTests     int
	xlVectors   int
	auditFaults int // faults per side the oracle re-simulates in a check

	svcCircuits  []string
	svcPrefill   int // bundles in the store before the clients start
	svcClients   int
	svcBlock     int // requests per measured block
	svcColdEvery int // every svcColdEvery-th request of a client submits a new key
}

var fullSizes = sizes{
	tableCircuits: []string{"s1423", "b04"},
	xlCircuit:     "s35932xl",
	xlTests:       10,
	xlVectors:     16,
	auditFaults:   8,
	svcCircuits:   []string{"b01", "b02", "b06"},
	svcPrefill:    192,
	svcClients:    2,
	svcBlock:      200,
	svcColdEvery:  20,
}

var workloads = map[string]func(*bench) error{
	"table-mid":   tableMid,
	"xl-grade":    xlGrade,
	"service-mix": serviceMix,
}

// bench is the state of one benchmark run.
type bench struct {
	root     string // checkout root; tables_output.txt is read from it
	out      string // directory for traces and output digests
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizes

	attempted, failed int
	metrics           map[string]metric
	digest            hash.Hash
}

func newBench(root, out, workload string, seed int64, seconds float64, traced bool, size sizes) *bench {
	return &bench{
		root: root, out: out, workload: workload, seed: seed, seconds: seconds,
		traced: traced, size: size,
		metrics: map[string]metric{},
		digest:  sha256.New(),
	}
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// check counts one checked operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// run executes the workload and returns its result.
func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	if b.traced {
		for _, m := range layerMetrics {
			b.set(m.name, 0, m.unit)
		}
	}
	if err := workloads[b.workload](b); err != nil {
		return nil, err
	}
	if !b.traced {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	sum := hex.EncodeToString(b.digest.Sum(nil))
	if err := os.WriteFile(b.outPath("digest"), []byte(sum+"\n"), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "output digest %s seed %d: sha256:%s\n", b.workload, b.seed, sum)
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

// outPath names a file of this run in the output directory.
func (b *bench) outPath(ext string) string {
	return filepath.Join(b.out, fmt.Sprintf("%s-seed%d.%s", b.workload, b.seed, ext))
}

// done reports whether the measuring loop that started at start should
// stop: after at least one operation, once the next one (taken to cost
// as much as the last) would end further past the --seconds mark than
// the loop is now short of it.
func (b *bench) done(ops []sample, start time.Time) bool {
	return len(ops) > 0 && time.Since(start).Seconds()+ops[len(ops)-1].wall/2 >= b.seconds
}

// setup runs fn n times and returns the median wall time.
func (b *bench) setup(n int, fn func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC() // start each set-up from a collected heap
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		fmt.Fprintf(os.Stderr, "set-up: %.3fs\n", times[len(times)-1])
	}
	return median(times), nil
}

// sample is the cost of one measured operation.
type sample struct{ wall, cpu float64 }

// measure runs fn from a collected heap and returns its cost.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	w, c := time.Now(), cpuSeconds()
	err := fn()
	s := sample{time.Since(w).Seconds(), cpuSeconds() - c}
	fmt.Fprintf(os.Stderr, "operation: wall %.3fs cpu %.3fs\n", s.wall, s.cpu)
	return s, err
}

// setOps records the median wall and CPU time of the measured operations.
func (b *bench) setOps(ops []sample) {
	var w, c []float64
	for _, s := range ops {
		w = append(w, s.wall)
		c = append(c, s.cpu)
	}
	b.set("wall_s", median(w), "s")
	b.set("cpu_s", median(c), "s")
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by the nearest-rank method.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail returns the want-quantile of v when at least ten samples lie
// above it, else the highest quantile that has ten samples above it
// (the median when there are too few samples for that), together with
// the quantile used in percent.
func tail(v []float64, want float64) (float64, float64) {
	n := len(v)
	q := want
	if n-int(want*float64(n)+0.999999) < 10 {
		q = float64(n-10) / float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return quantile(v, q), 100 * q
}

func main() {
	wl := flag.String("workload", "", "workload to run: table-mid, xl-grade or service-mix")
	seed := flag.Int64("seed", 0, "input seed")
	seconds := flag.Float64("seconds", 20, "how long to keep starting measured operations")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant of the workload")
	root := flag.String("root", ".", "repository checkout root")
	out := flag.String("out", ".bench_build/results", "directory for traces and output digests")
	flag.Parse()
	if _, ok := workloads[*wl]; !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	b := newBench(*root, *out, *wl, *seed, *seconds, *trace == 1, fullSizes)
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", *wl, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d checked operations failed (GOMAXPROCS %d)\n",
		*wl, *seed, res.Failed, res.Attempted, runtime.GOMAXPROCS(0))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
