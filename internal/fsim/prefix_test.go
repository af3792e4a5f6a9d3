package fsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/sim"
)

// detectAfterSet returns every fault of targets that the scan test
// (SI, T·seq) detects, through the checkpointed path of DetectsAllAfter
// run without its early abort.
func detectAfterSet(s *Simulator, p *Prefix, seq logic.Sequence, x *XRun, targets *fault.Set) *fault.Set {
	s.detectAfter(p, seq, x, targets, nil)
	got := targets.Clone()
	got.SubtractWith(p.rest)
	got.UnionWith(p.found)
	return got
}

// siteFaults returns the faults on primary inputs, on flip-flop outputs
// and on flip-flop D-pins: the sites where a loaded state meets the
// stuck-at forcing.
func siteFaults(c *circuit.Circuit, faults []fault.Fault) *fault.Set {
	set := fault.NewSet(len(faults))
	for fi, f := range faults {
		if k := c.Nodes[f.Node].Kind; k == circuit.Input || k == circuit.DFF {
			set.Add(fi)
		}
	}
	return set
}

// TestPrefixEndStatesMatchScalar checks what a filled Prefix holds
// against a scalar interpreter run of every fault machine over the
// prefix: the PO detections within the prefix, and for every other
// fault the good end state patched with its diff — under full scan and
// a partial chain, from scan-ins with X, at every width and worker
// count.
func TestPrefixEndStatesMatchScalar(t *testing.T) {
	c := samples.S27()
	faults := fault.Universe(c)
	ch, err := scan.NewChain(c.NumFFs(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	seq := randomSeq(r, c.NumPIs(), 4)
	for _, chain := range []*scan.Chain{nil, ch} {
		ref := NewChain(c, faults, chain)
		for _, si := range xrunScanIns(r, ref.Nsv()) {
			full := logic.NewVector(c.NumFFs(), logic.X)
			if chain == nil {
				copy(full, si)
			} else {
				for k, ff := range chain.FFs {
					if k < len(si) {
						full[ff] = si[k]
					}
				}
			}
			good := sim.RunSequence(c, full, seq)
			for _, words := range []int{1, 2, 4} {
				for _, workers := range []int{1, 4} {
					s := NewChain(c, faults, chain).SetBatchWords(words).SetWorkers(workers)
					p := s.NewPrefix(si, seq)
					p.Fill(fault.NewFullSet(len(faults)))
					if !p.good.Equal(good.Final()) {
						t.Fatalf("si=%v: good end state %v, want %v", si, p.good, good.Final())
					}
					for fi, f := range faults {
						e := sim.New(c)
						e.SetInjections([]sim.Injection{f.Injection(^uint64(0))})
						e.SetStateVector(full)
						po := false
						for u, v := range seq {
							e.SetPIVector(v)
							e.EvalComb()
							for i := range c.POs {
								fv, gv := e.PO(i).Get(0), good.POs[u][i]
								po = po || (fv.IsBinary() && gv.IsBinary() && fv != gv)
							}
							e.ClockFF()
						}
						tag := fmt.Sprintf("chain=%v si=%v words=%d workers=%d fault %s", chain != nil, si, words, workers, f.String(c))
						if p.det.Has(fi) != po {
							t.Fatalf("%s: prefix PO detection %v, want %v", tag, p.det.Has(fi), po)
						}
						if po {
							continue
						}
						end := p.good.Clone()
						for _, d := range p.diff[fi] {
							end[d.ff] = d.v
						}
						for ff := range end {
							if want := e.State(ff).Get(0); end[ff] != want {
								t.Fatalf("%s: flip-flop %d ends %v, want %v", tag, ff, end[ff], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestDetectsAllAfterMatchesReplay checks the checkpointed trial against
// the full replay of the combined test (SI, T·T'), on b01, s344 and b04
// under full scan and a partial chain, from scan-ins with and without
// X, at widths 1/2/4 and 1/4 workers. Each suffix runs without an X run,
// with a full one and with one targeted at half the faults (so some
// must faults fall back to the full suffix). The prefix is first filled
// for a subset and extended by the trials. Both the detected sets and
// the DetectsAll answers must match, for must sets holding prefix-PO
// detections and faults on PIs, flip-flop outputs and D-pins.
func TestDetectsAllAfterMatchesReplay(t *testing.T) {
	configs := []struct{ words, workers int }{{1, 1}, {2, 4}, {4, 1}, {1, 4}, {2, 1}, {4, 4}}
	siteHits := 0
	for ci, xc := range xrunCases(t) {
		r := rand.New(rand.NewSource(int64(100 + ci)))
		nf := len(xc.faults)
		ref := xc.sim()
		sites := siteFaults(xc.c, xc.faults)
		half := fault.NewSet(nf)
		for f := 0; f < nf; f += 2 {
			half.Add(f)
		}
		prefix := randomSeq(r, xc.c.NumPIs(), 4)
		suffixes := []logic.Sequence{xc.seq, randomSeq(r, xc.c.NumPIs(), 2)}
		for si, scanIn := range xrunScanIns(r, ref.Nsv()) {
			prePO := ref.Detect(prefix, Options{Init: scanIn})
			for _, suf := range suffixes {
				full := append(prefix.Clone(), suf.Clone()...)
				want := ref.DetectTest(scanIn, full, nil)
				// must sets: detected sites plus prefix-PO detections
				// (answer yes), and the same plus one undetected fault
				// (answer no).
				yes := sites.Clone()
				yes.UnionWith(prePO)
				yes.IntersectWith(want)
				siteHits += yes.Count() - prePO.Count()
				musts := []*fault.Set{yes}
				miss := fault.NewFullSet(nf)
				miss.SubtractWith(want)
				if idx := miss.Indices(); len(idx) > 0 {
					no := yes.Clone()
					no.Add(idx[r.Intn(len(idx))])
					musts = append(musts, no)
				}
				if !yes.ContainsAll(sites) && sites.Count() > 0 {
					no := yes.Clone()
					no.UnionWith(sites)
					musts = append(musts, no)
				}
				wantAll := make([]bool, len(musts))
				for mi, must := range musts {
					wantAll[mi] = ref.DetectsAll(full, Options{Init: scanIn, ScanOut: true}, must)
				}
				// Each scan-in runs half of the width × worker grid; the
				// scan-ins together cover all of it.
				for k := 0; k < 3; k++ {
					cfg := configs[(3*si+k)%len(configs)]
					s := xc.sim().SetBatchWords(cfg.words).SetWorkers(cfg.workers)
					p := s.NewPrefix(scanIn, prefix)
					p.Fill(half)
					for xi, x := range []*XRun{nil, s.RunX(suf, nil), s.RunX(suf, half)} {
						tag := fmt.Sprintf("%s si#%d |T'|=%d words=%d workers=%d xrun#%d",
							xc.name, si, len(suf), cfg.words, cfg.workers, xi)
						if got := detectAfterSet(s, p, suf, x, fault.NewFullSet(nf)); !got.Equal(want) {
							extra, lost := got.Clone(), want.Clone()
							extra.SubtractWith(want)
							lost.SubtractWith(got)
							t.Fatalf("%s: checkpointed trial detects %d extra %v and misses %v",
								tag, extra.Count(), extra.Indices(), lost.Indices())
						}
						for mi, must := range musts {
							if got := s.DetectsAllAfter(p, suf, x, must); got != wantAll[mi] {
								t.Fatalf("%s must#%d: DetectsAllAfter = %v, DetectsAll = %v", tag, mi, got, wantAll[mi])
							}
						}
					}
					if !p.filled.Equal(fault.NewFullSet(nf)) {
						t.Fatalf("%s si#%d: the trials left the prefix filled for %d of %d faults",
							xc.name, si, p.filled.Count(), nf)
					}
				}
			}
		}
	}
	if siteHits <= 0 {
		t.Fatal("no must set held a detected PI, flip-flop or D-pin fault beyond the prefix-PO detections")
	}
}

// TestDetectsAllAfterCutsWork pins that both cuts engage: a trial from a
// checkpoint never replays the prefix, and an X run over a suffix long
// enough to synchronize cuts the suffix replays further.
func TestDetectsAllAfterCutsWork(t *testing.T) {
	xc := xrunCases(t)[4] // b04/full: several passes, fast synchronization
	r := rand.New(rand.NewSource(9))
	prefix := randomSeq(r, xc.c.NumPIs(), 20)
	si := xrunScanIns(r, xc.sim().Nsv())[1]
	all := fault.NewFullSet(len(xc.faults))

	full := xc.sim()
	full.Detect(append(prefix.Clone(), xc.seq.Clone()...), Options{Init: si, ScanOut: true})
	replay := full.Stats().PassVectors

	s := xc.sim()
	p := s.NewPrefix(si, prefix)
	p.Fill(all)
	s.ResetStats()
	detectAfterSet(s, p, xc.seq, nil, all)
	plain := s.Stats().PassVectors
	x := s.RunX(xc.seq, nil)
	s.ResetStats()
	detectAfterSet(s, p, xc.seq, x, all)
	cut := s.Stats().PassVectors
	if plain >= replay || cut >= plain {
		t.Fatalf("pass-vectors: full replay %d, from the checkpoint %d, with the sync cut %d; want strictly falling",
			replay, plain, cut)
	}
}

// TestDetectsAllAfterXRunOfAnotherSequence pins the guard against an X
// run of a different suffix.
func TestDetectsAllAfterXRunOfAnotherSequence(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	seq := randomSeq(rand.New(rand.NewSource(1)), c.NumPIs(), 3)
	p := s.NewPrefix(vec("010"), seq)
	x := s.RunX(seq, nil)
	mustPanic(t, "X run of a shorter sequence", func() {
		s.DetectsAllAfter(p, seq[:2], x, fault.NewFullSet(len(faults)))
	})
}
