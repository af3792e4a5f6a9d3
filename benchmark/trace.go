package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/fsim"
)

// span is one timed call into a layer. Spans of one request or one
// circuit's pipeline share a trace identifier.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for a root span
	Trace    string             `json:"trace"`
	Name     string             `json:"name"`
	Start    float64            `json:"start_s"`
	End      float64            `json:"end_s"`
	Self     float64            `json:"self_s"` // duration minus the time its children cover
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced paths share code with the traced ones.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its identifier (0 on a nil tracer).
func (t *tracer) begin(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id and attaches its counters.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	s.End = now
	s.Counters = counters
}

// sim runs fn, one call into a layer that fault-simulates on s, inside a
// span, and adds the simulator's pass-work deltas to the counters fn
// returns.
func (t *tracer) sim(trace string, parent int, name string, s *fsim.Simulator, fn func() map[string]float64) {
	id := t.begin(trace, parent, name)
	before := s.Stats()
	c := fn()
	d := s.Stats().Sub(before)
	if c == nil {
		c = map[string]float64{}
	}
	c["fsim.passes"] = float64(d.Passes)
	c["fsim.pass_vectors"] = float64(d.PassVectors)
	c["fsim.fault_slots"] = float64(d.FaultSlots)
	t.end(id, c)
}

// finish computes every span's self time.
func (t *tracer) finish() {
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		s.Self = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, reach := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], reach), min(x[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// named returns the spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total is the summed duration of the spans called name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.named(name) {
		sum += s.dur()
	}
	return sum
}

// durations lists the durations of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.named(name) {
		d = append(d, s.dur())
	}
	return d
}

// counter sums counter key over the spans called name ("" = all spans).
func (t *tracer) counter(name, key string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if name == "" || s.Name == name {
			sum += s.Counters[key]
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerMetrics lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A layer a workload does not run reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"fault.collapse_s", "s"},
	{"fault.reps", "count"},
	{"adi.install_s", "s"},
	{"atpg.generate_s", "s"},
	{"atpg.tests", "count"},
	{"seqgen.t0_s", "s"},
	{"seqgen.random_s", "s"},
	{"vecomit.t0_s", "s"},
	{"vecomit.t0_checks", "count"},
	{"vecomit.t0_accept_ratio", "ratio"},
	{"vecomit.t0.slots_per_pass", "count"},
	{"scomp.base4_s", "s"},
	{"scomp.base4_attempts", "count"},
	{"scomp.base4_accept_ratio", "ratio"},
	{"scomp.base4_faults_simulated", "count"},
	{"scomp.base4.slots_per_pass", "count"},
	{"dyncomp.s", "s"},
	{"dyncomp.candidates", "count"},
	{"dyncomp.faults_simulated", "count"},
	{"dyncomp.slots_per_pass", "count"},
	{"core.dir_s", "s"},
	{"core.dir.phase1_s", "s"},
	{"core.dir.phase2_s", "s"},
	{"core.dir.phase3_s", "s"},
	{"core.dir.phase4_s", "s"},
	{"core.dir.slots_per_pass", "count"},
	{"core.rand_s", "s"},
	{"core.rand.phase1_s", "s"},
	{"core.rand.phase2_s", "s"},
	{"core.rand.phase3_s", "s"},
	{"core.rand.phase4_s", "s"},
	{"core.rand.slots_per_pass", "count"},
	{"core.omit_checks", "count"},
	{"core.omit_accept_ratio", "ratio"},
	{"core.static_attempts", "count"},
	{"core.static_accept_ratio", "ratio"},
	{"core.faults_simulated", "count"},
	{"fsim.passes", "count"},
	{"fsim.pass_vectors", "count"},
	{"fsim.fault_slots", "count"},
	{"fsim.slots_per_pass", "count"},
	{"fsim.grade_s", "s"},
	{"fsim.grade.slots_per_pass", "count"},
	{"fsim.pass_vectors_per_s", "1/s"},
	{"jobs.submit_hit_ms", "ms"},
	{"jobs.store_get_ms", "ms"},
	{"jobs.store_put_ms", "ms"},
	{"jobs.http_submit_ms", "ms"},
	{"jobs.http_manifest_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.encode_s", "s"},
	{"jobs.decode_s", "s"},
	{"jobs.cache_hits", "count"},
	{"jobs.computations", "count"},
	{"jobs.failures", "count"},
	{"jobs.store_entries", "count"},
	{"jobs.jobs_per_s", "1/s"},
	{"jobs.hit_p50_ms", "ms"},
	{"jobs.hit_tail_ms", "ms"},
	{"jobs.hit_tail_pct", "%"},
	{"jobs.hit_samples", "count"},
	{"jobs.cold_p50_ms", "ms"},
	{"jobs.cold_tail_ms", "ms"},
	{"jobs.cold_tail_pct", "%"},
	{"jobs.cold_samples", "count"},
	{"workload.self_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayers derives the per-layer metrics from the finished trace and
// writes the spans out. root is the span covering the traced part of the
// workload; tracedWall and untracedWall are the same measurement taken
// with tracing on and off.
func (b *bench) setLayers(t *tracer, root int, tracedWall, untracedWall float64) error {
	t.finish()
	sec := func(metric, name string) { b.set(metric, t.total(name), "s") }
	ms := func(metric, name string) { b.set(metric, 1000*median(t.durations(name)), "ms") }
	count := func(metric, name, key string) { b.set(metric, t.counter(name, key), "count") }
	slots := func(metric, name string) {
		b.set(metric, ratio(t.counter(name, "fsim.fault_slots"), t.counter(name, "fsim.passes")), "count")
	}

	sec("gen.generate_s", "gen.generate")
	sec("fault.collapse_s", "fault.collapse")
	count("fault.reps", "fault.collapse", "reps")
	sec("adi.install_s", "adi.install")
	sec("atpg.generate_s", "atpg.generate")
	count("atpg.tests", "atpg.generate", "tests")
	sec("seqgen.t0_s", "seqgen.t0")
	sec("seqgen.random_s", "seqgen.random")

	sec("vecomit.t0_s", "vecomit.t0")
	count("vecomit.t0_checks", "vecomit.t0", "checks")
	// An omission is either simulated (a check) or free (nothing at risk),
	// so the accept ratio is removals over both.
	b.set("vecomit.t0_accept_ratio", ratio(t.counter("vecomit.t0", "removed"),
		t.counter("vecomit.t0", "checks")+t.counter("vecomit.t0", "free")), "ratio")
	slots("vecomit.t0.slots_per_pass", "vecomit.t0")

	sec("scomp.base4_s", "scomp.base4")
	count("scomp.base4_attempts", "scomp.base4", "attempts")
	b.set("scomp.base4_accept_ratio", ratio(t.counter("scomp.base4", "combined"), t.counter("scomp.base4", "attempts")), "ratio")
	count("scomp.base4_faults_simulated", "scomp.base4", "faults_simulated")
	slots("scomp.base4.slots_per_pass", "scomp.base4")

	sec("dyncomp.s", "dyncomp")
	count("dyncomp.candidates", "dyncomp", "candidates")
	count("dyncomp.faults_simulated", "dyncomp", "faults_simulated")
	slots("dyncomp.slots_per_pass", "dyncomp")

	var omitChecks, omitFree, omitRemoved, staticAttempts, staticCombined, simulated float64
	for _, arm := range []string{"core.dir", "core.rand"} {
		sec(arm+"_s", arm)
		for p := 1; p <= 4; p++ {
			key := fmt.Sprintf("phase%d_s", p)
			b.set(arm+"."+key, t.counter(arm, key), "s")
		}
		slots(arm+".slots_per_pass", arm)
		omitChecks += t.counter(arm, "omit_checks")
		omitRemoved += t.counter(arm, "omit_removed")
		omitFree += t.counter(arm, "omit_free")
		staticAttempts += t.counter(arm, "static_attempts")
		staticCombined += t.counter(arm, "static_combined")
		simulated += t.counter(arm, "faults_simulated")
	}
	b.set("core.omit_checks", omitChecks, "count")
	b.set("core.omit_accept_ratio", ratio(omitRemoved, omitChecks+omitFree), "ratio")
	b.set("core.static_attempts", staticAttempts, "count")
	b.set("core.static_accept_ratio", ratio(staticCombined, staticAttempts), "ratio")
	b.set("core.faults_simulated", simulated, "count")

	passes, vectors := t.counter("", "fsim.passes"), t.counter("", "fsim.pass_vectors")
	count("fsim.passes", "", "fsim.passes")
	count("fsim.pass_vectors", "", "fsim.pass_vectors")
	count("fsim.fault_slots", "", "fsim.fault_slots")
	b.set("fsim.slots_per_pass", ratio(t.counter("", "fsim.fault_slots"), passes), "count")
	b.set("fsim.grade_s", t.total("fsim.grade")+t.total("fsim.t0_detect"), "s")
	slots("fsim.grade.slots_per_pass", "fsim.grade")
	simBusy := 0.0
	for _, s := range t.spans {
		if s.Counters["fsim.passes"] > 0 {
			simBusy += s.dur()
		}
	}
	b.set("fsim.pass_vectors_per_s", ratio(vectors, simBusy), "1/s")

	ms("jobs.submit_hit_ms", "jobs.submit_hit")
	ms("jobs.store_get_ms", "jobs.store_get")
	ms("jobs.store_put_ms", "jobs.store_put")
	ms("jobs.http_submit_ms", "http.submit")
	ms("jobs.http_manifest_ms", "http.manifest")
	var waits []float64
	for _, s := range t.named("http.wait") {
		waits = append(waits, s.Counters["queue_wait_s"])
	}
	b.set("jobs.queue_wait_ms", 1000*median(waits), "ms")
	sec("jobs.encode_s", "jobs.encode")
	sec("jobs.decode_s", "jobs.decode")

	b.set("workload.self_s", t.spans[root-1].Self, "s")
	b.set("trace.wall_s", tracedWall, "s")
	b.set("trace.untraced_wall_s", untracedWall, "s")
	b.set("trace.overhead_s", tracedWall-untracedWall, "s")
	b.set("trace.spans", float64(len(t.spans)), "count")
	return t.write(b.outPath("trace.json"))
}
