package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/sim"
)

// BenchmarkKernelEval isolates the raw combinational-evaluation cost:
// one Engine.EvalComb against one BatchEngine.EvalComb per width, with
// no scan traffic or detection checks. The equivalent-work comparison
// is Mslot-gate-evals/s — a width-W kernel pass evaluates every gate in
// 64*W slots, so matching the interpreter's number means break-even and
// the acceptance target is ~3x at W >= 4. The -inj arms carry a full
// fault-simulation batch (the first 64*W-1 collapsed faults, one per
// slot past the good machine's), so they price injection patching too.
func BenchmarkKernelEval(b *testing.B) {
	c, ok := gen.RosterCircuit("s1423")
	if !ok {
		b.Fatal("unknown roster circuit s1423")
	}
	p := sim.Compile(c)
	faults := fault.Collapse(c)
	b.Run("interp", func(b *testing.B) {
		e := sim.New(c)
		for i := 0; i < b.N; i++ {
			e.EvalComb()
		}
		b.ReportMetric(float64(b.N)*float64(c.NumNodes()*64)/b.Elapsed().Seconds()/1e6, "Mslot-gate-evals/s")
	})
	arms := []struct {
		w   int
		inj bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {1, true}, {4, true}}
	for _, arm := range arms {
		name := fmt.Sprintf("kernel-w%d", arm.w)
		if arm.inj {
			name += "-inj"
		}
		b.Run(name, func(b *testing.B) {
			e := sim.NewBatch(p, arm.w)
			if arm.inj {
				e.SetInjections(batchInjections(faults, arm.w))
			}
			for i := 0; i < b.N; i++ {
				e.EvalComb()
			}
			b.ReportMetric(float64(b.N)*float64(c.NumNodes()*arm.w*64)/b.Elapsed().Seconds()/1e6, "Mslot-gate-evals/s")
		})
	}
}

// batchInjections loads faults into slots 1..64*w-1 of a w-word batch,
// one fault per slot, the way a fault-simulation pass does.
func batchInjections(faults []fault.Fault, w int) []sim.BatchInjection {
	n := min(len(faults), 64*w-1)
	injs := make([]sim.BatchInjection, n)
	for i, f := range faults[:n] {
		mask := make([]uint64, w)
		mask[(i+1)>>6] = 1 << (uint(i+1) & 63)
		injs[i] = sim.BatchInjection{Node: f.Node, Pin: f.Pin, Stuck: f.Stuck, Mask: mask}
	}
	return injs
}
