package scomp

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adi"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/golden"
	"repro/internal/logic"
	"repro/internal/scan"
)

// ledgerFixture builds a pool of short random scan tests over a circuit
// large enough to give the combiner real work. With long set, test
// lengths are drawn uniformly from 1 to 12 vectors instead.
func ledgerFixture(tb testing.TB, seed int64, ntests int, long bool) (*gen.Params, *scan.Set) {
	tb.Helper()
	p := gen.Params{Name: "sl", Seed: 21, PIs: 4, POs: 4, FFs: 8, Gates: 100}
	c := gen.MustGenerate(p)
	r := rand.New(rand.NewSource(seed))
	ts := scan.NewSet()
	for k := 0; k < ntests; k++ {
		t := scan.Test{SI: make(logic.Vector, c.NumFFs())}
		for i := range t.SI {
			t.SI[i] = logic.Value(r.Intn(2))
		}
		more := func(u int) bool { return u < 1+r.Intn(2) } // redrawn per vector
		if long {
			n := 1 + r.Intn(12)
			more = func(u int) bool { return u < n }
		}
		for u := 0; more(u); u++ {
			v := make(logic.Vector, c.NumPIs())
			for i := range v {
				v[i] = logic.Value(r.Intn(2))
			}
			t.Seq = append(t.Seq, v)
		}
		ts.Tests = append(ts.Tests, t)
	}
	return &p, ts
}

// The golden files were frozen from the retired pre-ledger engine and
// confirmed on the ledger engine before that engine was deleted;
// -update regenerates them from the ledger engine at one worker.
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestLedgerEquivalence is the scomp arm of the byte-identity contract:
// the ledger engine — at any worker count, with and without transfer
// sequences and with and without an ADI simulation order installed —
// combines exactly the pairs recorded in the golden file, in the same
// order, producing an identical test set and identical committed-trial
// counts. Every returned ledger is re-verified against a fresh
// simulator, and the ledger short-circuit must fire somewhere.
func TestLedgerEquivalence(t *testing.T) {
	totalShort := 0
	run := func(workers int, ordered bool) string {
		var sb strings.Builder
		for _, seed := range []int64{5, 11} {
			for _, xferLen := range []int{0, 3} {
				p, ts := ledgerFixture(t, seed, 12, false)
				c := gen.MustGenerate(*p)
				faults := fault.Collapse(c)
				name := fmt.Sprintf("seed=%d xfer=%d", seed, xferLen)

				s := fsim.New(c, faults).SetWorkers(workers)
				if ordered {
					adi.Install(s, adi.Options{Seed: 7})
				}
				entry := s.Order()
				out, led, st := CompactWithLedger(s, ts, Options{TransferLen: xferLen})
				if got := s.Order(); (got == nil) != (entry == nil) {
					t.Fatalf("%s workers=%d adi=%v: entry simulation order not restored", name, workers, ordered)
				}
				verifyLedger(t, name, c, faults, out, led)
				totalShort += st.ShortCircuits
				fmt.Fprintf(&sb, "# case %s\n# combined=%d attempts=%d rounds=%d transfer_combined=%d transfer_vectors=%d\n",
					name, st.Combined, st.Attempts, st.Rounds, st.TransferCombined, st.TransferVectors)
				sb.WriteString(scan.WriteSetString(out))
			}
		}
		return sb.String()
	}

	path := filepath.Join("testdata", t.Name()+".golden")
	if *update {
		golden.Check(t, path, run(1, false), true)
		return
	}
	for _, workers := range []int{1, 4} {
		for _, ordered := range []bool{false, true} {
			golden.Check(t, path, run(workers, ordered), false)
		}
	}
	if totalShort == 0 {
		t.Fatal("ledger short-circuit never fired across the sweep")
	}
}

// verifyLedger checks the returned ledger against a fresh simulator:
// row-aligned with the output tests, exact first-PO times, correct
// scan-out-only flags, and per-test detections that cover each test's
// contribution to the union without over-crediting.
func verifyLedger(t *testing.T, name string, c *circuit.Circuit, faults []fault.Fault, out *scan.Set, led *fsim.Ledger) {
	t.Helper()
	if led.Len() != len(out.Tests) {
		t.Fatalf("%s: ledger has %d rows for %d tests", name, led.Len(), len(out.Tests))
	}
	s := fsim.New(c, faults)
	for k, tst := range out.Tests {
		row := led.Row(k)
		if row == nil {
			t.Fatalf("%s: test %d has no ledger row", name, k)
		}
		actual := s.DetectTest(tst.SI, tst.Seq, nil)
		if !actual.ContainsAll(row.Detected()) {
			t.Fatalf("%s: test %d ledger row over-credits detections", name, k)
		}
		prof := s.Profile(tst.SI, tst.Seq, row.Detected())
		last := len(tst.Seq) - 1
		var bad string
		row.Detected().ForEach(func(f int) {
			if bad != "" {
				return
			}
			if d := row.FirstPO(f); d >= 0 {
				if prof.PODetectTime(f) != d {
					bad = fmt.Sprintf("fault %d: row first-PO %d, actual %d", f, d, prof.PODetectTime(f))
				}
			} else if !row.ScanOutOnly(f) {
				bad = fmt.Sprintf("fault %d: detected but neither PO nor scan-out-only", f)
			} else if prof.PODetectTime(f) >= 0 || !prof.ScanOutDetects(f, last) {
				bad = fmt.Sprintf("fault %d: scan-out-only flag wrong", f)
			}
		})
		if bad != "" {
			t.Fatalf("%s: test %d: %s", name, k, bad)
		}
	}
}

// TestLedgerInitialRecords checks that seeding the ledger with
// pre-computed records changes nothing: the seeded run must produce the
// same set and the same stats as the self-grading run.
func TestLedgerInitialRecords(t *testing.T) {
	p, ts := ledgerFixture(t, 9, 10, false)
	c := gen.MustGenerate(*p)
	faults := fault.Collapse(c)

	s := fsim.New(c, faults)
	ref, refLed, refSt := CompactWithLedger(s, ts, Options{})

	recs := make([]*fsim.Record, len(ts.Tests))
	for i, tst := range ts.Tests {
		if i%2 == 0 { // mix seeded and self-graded rows
			recs[i] = s.RecordTest(tst.SI, tst.Seq, nil)
		}
	}
	out, led, st := CompactWithLedger(s, ts, Options{InitialRecords: recs})
	if scan.WriteSetString(out) != scan.WriteSetString(ref) {
		t.Fatal("seeded run produced a different set")
	}
	if st.Combined != refSt.Combined || st.Attempts != refSt.Attempts {
		t.Fatalf("seeded run stats differ: %+v vs %+v", st, refSt)
	}
	if led.Len() != refLed.Len() {
		t.Fatalf("seeded run ledger length differs: %d vs %d", led.Len(), refLed.Len())
	}
	for k := 0; k < led.Len(); k++ {
		if !led.Row(k).Detected().Equal(refLed.Row(k).Detected()) {
			t.Fatalf("seeded run ledger row %d differs", k)
		}
	}
}

// TestLedgerLongTests runs the combiner on tests long enough that its
// trials take both checkpoint cuts: the prefix of τ_i and the all-X run
// of τ_j, which is kept for suffixes of minXRunLen vectors or more. At
// 1 and 4 workers the runs must agree byte for byte, the ledger must
// verify against a fresh simulator and no initially covered fault may
// be lost; some combinations must be accepted through a simulated
// trial, since those end the life of a checkpoint.
func TestLedgerLongTests(t *testing.T) {
	simulated := 0
	for _, fx := range []struct {
		seed   int64
		ntests int
	}{{1, 10}, {4, 20}, {8, 10}} {
		p, ts := ledgerFixture(t, fx.seed, fx.ntests, true)
		c := gen.MustGenerate(*p)
		faults := fault.Collapse(c)
		ref := fsim.New(c, faults)
		required := fault.NewSet(len(faults))
		long := 0
		for _, tst := range ts.Tests {
			required.UnionWith(ref.DetectTest(tst.SI, tst.Seq, nil))
			if len(tst.Seq) >= minXRunLen {
				long++
			}
		}
		if long < 2 {
			t.Fatalf("seed=%d: fixture has %d tests of %d or more vectors", fx.seed, long, minXRunLen)
		}
		var first string
		for _, workers := range []int{1, 4} {
			s := fsim.New(c, faults).SetWorkers(workers)
			out, led, st := CompactWithLedger(s, ts, Options{})
			name := fmt.Sprintf("seed=%d workers=%d", fx.seed, workers)
			verifyLedger(t, name, c, faults, out, led)
			after := fault.NewSet(len(faults))
			for _, tst := range out.Tests {
				after.UnionWith(ref.DetectTest(tst.SI, tst.Seq, nil))
			}
			if !after.ContainsAll(required) {
				t.Fatalf("%s: combining lost coverage", name)
			}
			got := fmt.Sprintf("%+v\n%s", st, scan.WriteSetString(out))
			if workers == 1 {
				first = got
				simulated += st.Combined - st.ShortCircuits
			} else if got != first {
				t.Fatalf("%s: output differs from workers=1", name)
			}
		}
	}
	if simulated == 0 {
		t.Fatal("no combination was accepted through a simulated trial")
	}
}
