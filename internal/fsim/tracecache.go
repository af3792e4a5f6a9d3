package fsim

import (
	"sync"

	"repro/internal/logic"
)

// defaultTraceCacheCap bounds the good-machine traces kept per
// Simulator. The working set of the compaction loops is tiny — the same
// (SI, seq) is re-simulated a handful of times in a row (risk check,
// acceptance check, bookkeeping re-simulation) before the loop moves on
// — so a short MRU list captures nearly all of the reuse.
const defaultTraceCacheCap = 8

// goodTrace memoizes one good-machine replay of a scan test (SI, seq):
// the primary-output words observed while each vector is applied, and
// the observed flip-flop words after each functional clock. All words
// are slot-uniform (the good engine runs without injections on
// broadcast inputs), so they compare directly against faulty words of
// any pass via DiffDefinite.
type goodTrace struct {
	po  [][]logic.Word // po[u][i]: i-th PO while vector u is applied
	obs [][]logic.Word // obs[u][k]: observed FF k after clock u
}

// computeGoodTrace replays seq from init on a one-word pass of the
// worker's kernel with no injections and records the trace.
func (w *worker) computeGoodTrace(init logic.Vector, seq logic.Sequence) *goodTrace {
	s := w.s
	eng := w.kernel(1)
	eng.Reset()
	s.scanIn(eng, init)
	tr := &goodTrace{
		po:  make([][]logic.Word, len(seq)),
		obs: make([][]logic.Word, len(seq)),
	}
	for u, vec := range seq {
		eng.SetPIVector(vec)
		eng.EvalComb()
		po := make([]logic.Word, len(s.c.POs))
		for i := range s.c.POs {
			po[i] = eng.PO(i)[0]
		}
		tr.po[u] = po
		eng.ClockFF()
		obs := make([]logic.Word, len(s.observed))
		for k, ff := range s.observed {
			obs[k] = eng.State(ff)[0]
		}
		tr.obs[u] = obs
	}
	return tr
}

// seenCap bounds the set of key hashes remembered for repeat detection;
// when it fills up it is simply dropped and restarted. Forgetting a hash
// only delays trace memoization by one more miss, so the reset is cheap
// insurance against unbounded growth over long compaction runs.
const seenCap = 4096

// traceCache is a small mutex-guarded MRU cache of good-machine traces
// keyed by (SI, seq). Keys are hashed for fast rejection and compared
// value-for-value on hit, and stored as private clones so later caller
// mutations of the vectors cannot corrupt the cache.
//
// Traces are only worth computing for keys that recur (the compaction
// loops simulate each candidate test a few times in a row, but also burn
// through many one-shot candidates). The cache therefore tracks the
// hashes of keys it has missed on; lookup reports a key as trace-worthy
// only on its second miss.
type traceCache struct {
	mu      sync.Mutex
	cap     int
	entries []*traceEntry // most recently used first
	seen    map[uint64]struct{}
}

type traceEntry struct {
	hash uint64
	si   logic.Vector
	seq  logic.Sequence
	tr   *goodTrace
}

func newTraceCache(cap int) *traceCache {
	return &traceCache{cap: cap, seen: make(map[uint64]struct{})}
}

// hashKey is FNV-1a over the scan-in values and every sequence vector,
// with length separators so (si, seq) boundaries cannot alias.
func hashKey(si logic.Vector, seq logic.Sequence) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix(byte(len(si)))
	for _, v := range si {
		mix(byte(v))
	}
	for _, vec := range seq {
		mix(255)
		mix(byte(len(vec)))
		for _, v := range vec {
			mix(byte(v))
		}
	}
	return h
}

func sameKey(e *traceEntry, si logic.Vector, seq logic.Sequence) bool {
	if !e.si.Equal(si) || len(e.seq) != len(seq) {
		return false
	}
	for u, vec := range seq {
		if !e.seq[u].Equal(vec) {
			return false
		}
	}
	return true
}

// lookup returns the cached trace for (si, seq), promoting it to the
// front. On a miss it returns nil and reports whether the key has been
// looked up before — the caller's cue that the key recurs and a trace is
// worth computing. Every miss marks the key as seen.
func (c *traceCache) lookup(si logic.Vector, seq logic.Sequence) (tr *goodTrace, repeat bool) {
	if c == nil || len(seq) == 0 {
		return nil, false
	}
	h := hashKey(si, seq)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.hash == h && sameKey(e, si, seq) {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e.tr, true
		}
	}
	_, repeat = c.seen[h]
	if !repeat {
		if len(c.seen) >= seenCap {
			c.seen = make(map[uint64]struct{})
		}
		c.seen[h] = struct{}{}
	}
	return nil, repeat
}

// put inserts a trace at the front, evicting the least recently used
// entry beyond the capacity.
func (c *traceCache) put(si logic.Vector, seq logic.Sequence, tr *goodTrace) {
	if c == nil || tr == nil || len(seq) == 0 {
		return
	}
	e := &traceEntry{hash: hashKey(si, seq), si: si.Clone(), seq: seq.Clone(), tr: tr}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, nil)
	copy(c.entries[1:], c.entries)
	c.entries[0] = e
	if len(c.entries) > c.cap {
		c.entries = c.entries[:c.cap]
	}
}
