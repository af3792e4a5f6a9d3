package fsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
)

func benchSetup(b *testing.B) (*Simulator, logic.Sequence, logic.Vector) {
	b.Helper()
	c := gen.MustGenerate(gen.Params{Name: "b", Seed: 2, PIs: 8, POs: 6, FFs: 32, Gates: 500})
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(1))
	seq := randomSeq(r, c.NumPIs(), 64)
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return s, seq, si
}

// BenchmarkDetectScanTest measures a full scan-test fault simulation
// (~1.2k collapsed faults, 64 vectors) with fault dropping.
func BenchmarkDetectScanTest(b *testing.B) {
	s, seq, si := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DetectTest(si, seq, nil)
	}
	b.ReportMetric(float64(s.NumFaults()), "faults")
}

// BenchmarkDetectScanTestWorkers compares the same scan-test simulation
// serial (workers=1) against the fan-out at NumCPU workers. The detected
// set is identical for every worker count; only wall-clock differs.
func BenchmarkDetectScanTestWorkers(b *testing.B) {
	for _, n := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			s, seq, si := benchSetup(b)
			s.SetWorkers(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DetectTest(si, seq, nil)
			}
		})
	}
}

// BenchmarkDetectScanTestCachedTrace measures the steady state of the
// trace cache: after a warm-up run the good-machine trace of (si, seq)
// is memoized, so every pass packs 64 faults and skips slot-0 broadcasts.
func BenchmarkDetectScanTestCachedTrace(b *testing.B) {
	s, seq, si := benchSetup(b)
	s.DetectTest(si, seq, nil) // mark key seen
	s.DetectTest(si, seq, nil) // compute + cache the trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DetectTest(si, seq, nil)
	}
}

// BenchmarkDetectNoScan measures grading a sequence from the all-X state.
func BenchmarkDetectNoScan(b *testing.B) {
	s, seq, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Detect(seq, Options{})
	}
}

// BenchmarkProfile measures the per-time detection profile used by
// Phase 1 Step 3 (no early exit: every fault simulated to the end).
func BenchmarkProfile(b *testing.B) {
	s, seq, si := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Profile(si, seq, nil)
	}
}

// benchKernelSetup builds the batch-kernel comparison fixture: a
// circuit whose collapsed fault list spans many passes at every width.
func benchKernelSetup(b *testing.B, name string) (*Simulator, logic.Sequence, logic.Vector) {
	b.Helper()
	c, ok := gen.RosterCircuit(name)
	if !ok {
		b.Fatalf("unknown roster circuit %q", name)
	}
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(1))
	seq := randomSeq(r, c.NumPIs(), 48)
	si := make(logic.Vector, s.Nsv())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return s, seq, si
}

// BenchmarkKernelWidths compares the compiled kernel at growing batch
// widths, from one-word passes (words=1) up, on a scan-test grading run — the inner loop that dominates the Table 3 pipeline.
// Throughput is reported as fault-vector evaluations per second.
func BenchmarkKernelWidths(b *testing.B) {
	for _, name := range []string{"s1423", "s35932xl"} {
		if name == "s35932xl" && testing.Short() {
			continue
		}
		for _, words := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/words=%d", name, words), func(b *testing.B) {
				s, seq, si := benchKernelSetup(b, name)
				s.SetBatchWords(words)
				b.ResetTimer()
				var det int
				for i := 0; i < b.N; i++ {
					det = s.DetectTest(si, seq, nil).Count()
				}
				b.StopTimer()
				b.ReportMetric(float64(s.NumFaults())*float64(len(seq))*float64(b.N)/b.Elapsed().Seconds(), "fault-vecs/s")
				b.ReportMetric(float64(det), "detected")
			})
		}
	}
}

// BenchmarkKernelProfileWidths measures the width sweep on profile runs
// — no early exit, every fault simulated through the full sequence, so
// this isolates the raw kernel throughput from detection-dependent
// pass shortening.
func BenchmarkKernelProfileWidths(b *testing.B) {
	for _, words := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			s, seq, si := benchKernelSetup(b, "s1423")
			s.SetBatchWords(words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Profile(si, seq, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.NumFaults())*float64(len(seq))*float64(b.N)/b.Elapsed().Seconds(), "fault-vecs/s")
		})
	}
}
