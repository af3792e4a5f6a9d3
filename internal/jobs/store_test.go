package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testKey fabricates a distinct, well-formed key per index.
func testKey(i int) Key {
	return Key{
		Circuit: fmt.Sprintf("%064x", i+1),
		Config:  fmt.Sprintf("%032x", 0xabc),
	}
}

// bundle fabricates an artifact bundle of exactly n bytes.
func bundle(n int) *Artifacts {
	return &Artifacts{Files: map[string][]byte{
		"payload.txt": bytes.Repeat([]byte("x"), n),
	}}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifacts{Files: map[string][]byte{
		"summary.json": []byte(`{"v":1}`),
		"t0.txt":       []byte("0101\n"),
	}}
	k := testKey(0)
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if len(got.Files) != 2 || !bytes.Equal(got.Files["t0.txt"], a.Files["t0.txt"]) {
		t.Errorf("round trip mismatch: %v", got.Files)
	}
	if _, ok, _ := s.Get(testKey(99)); ok {
		t.Error("Get of absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Objects != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := testKey(0), testKey(1), testKey(2)
	if err := s.Put(k0, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, bundle(40)); err != nil {
		t.Fatal(err)
	}
	// Touch k0 so k1 becomes the least recently used.
	if _, ok, err := s.Get(k0); !ok || err != nil {
		t.Fatalf("Get k0: ok=%v err=%v", ok, err)
	}
	// A third 40-byte bundle exceeds the 100-byte budget: k1 must go.
	if err := s.Put(k2, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(k0) || s.Contains(k1) || !s.Contains(k2) {
		t.Errorf("after eviction: k0=%v k1=%v k2=%v (want true,false,true)",
			s.Contains(k0), s.Contains(k1), s.Contains(k2))
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 80 {
		t.Errorf("stats after eviction: %+v", st)
	}
}

func TestStoreRejectsOverBudgetBundle(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), bundle(40)); err != nil {
		t.Fatal(err)
	}
	// A bundle larger than the whole budget is not cached — and must not
	// evict everything else on its way to failing.
	if err := s.Put(testKey(1), bundle(500)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(testKey(1)) {
		t.Error("over-budget bundle was cached")
	}
	if !s.Contains(testKey(0)) {
		t.Error("over-budget Put evicted an unrelated bundle")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := testKey(0), testKey(1)
	if err := s.Put(k0, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(k0); !ok { // k1 is now LRU
		t.Fatal("Get k0 missed")
	}

	// Reopen: contents and recency order must survive.
	s2, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(k0) || !s2.Contains(k1) {
		t.Fatal("bundles lost across reopen")
	}
	if err := s2.Put(testKey(2), bundle(40)); err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(k0) || s2.Contains(k1) {
		t.Errorf("recency lost across reopen: k0=%v k1=%v (want true,false)",
			s2.Contains(k0), s2.Contains(k1))
	}
}

func TestStoreRebuildsWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), bundle(40)); err != nil {
		t.Fatal(err)
	}
	// Simulate a lost index: reopen must rescan objects/.
	if err := removeIndex(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(testKey(0)) {
		t.Error("bundle not recovered from objects/ scan")
	}
	if got, ok, err := s2.Get(testKey(0)); err != nil || !ok || len(got.Files["payload.txt"]) != 40 {
		t.Errorf("recovered bundle unreadable: ok=%v err=%v", ok, err)
	}
}

func removeIndex(dir string) error {
	return os.Remove(filepath.Join(dir, "index.json"))
}

// TestStoreSharedDirectory runs two stores on one directory, the way
// two processes share a -cache DIR, and has both Put the same key
// concurrently while also reading it back. Every Put and Get must
// succeed with the original bytes, and no temporary file or directory
// may be left behind.
func TestStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	var stores [2]*Store
	for i := range stores {
		s, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	k := testKey(7)
	a := &Artifacts{Files: map[string][]byte{
		"summary.json": []byte(`{"v":2}`),
		"t0.txt":       []byte("0101\n1100\n"),
	}}

	const writers, puts = 8, 25
	errs := make(chan error, 2*writers*puts)
	var wg sync.WaitGroup
	for _, s := range stores {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(s *Store) {
				defer wg.Done()
				for p := 0; p < puts; p++ {
					if err := s.Put(k, a); err != nil {
						errs <- err
						continue
					}
					got, ok, err := s.Get(k)
					switch {
					case err != nil:
						errs <- err
					case !ok:
						errs <- fmt.Errorf("Get after Put missed")
					case !bytes.Equal(got.Files["t0.txt"], a.Files["t0.txt"]):
						errs <- fmt.Errorf("Get returned %q", got.Files["t0.txt"])
					}
				}
			}(s)
		}
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed < 3 {
			t.Error(err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d operations failed", failed, 2*2*writers*puts)
	}

	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.Contains(d.Name(), ".tmp") {
			t.Errorf("temporary left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := reopened.Get(k); err != nil || !ok || len(got.Files) != 2 {
		t.Fatalf("reopened store: ok=%v err=%v", ok, err)
	}
}

// TestStoreRemovesStaleTemps plants the leftovers of crashed Puts — a
// temporary bundle directory and a temporary index file — once stale
// and once fresh, and checks that OpenStore removes only the stale ones:
// a fresh temporary may belong to a live Put of another process sharing
// the directory.
func TestStoreRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	if err := s.Put(k, bundle(10)); err != nil {
		t.Fatal(err)
	}
	obj := s.objectDir(k)
	stale := time.Now().Add(-2 * staleTempAge)
	plant := func(path string, isDir, old bool) string {
		t.Helper()
		if isDir {
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(path, "payload.txt"), []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if old {
			if err := os.Chtimes(path, stale, stale); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	staleObj := plant(filepath.Join(dir, k.String()+".tmp-111"), true, true)
	freshObj := plant(filepath.Join(dir, k.String()+".tmp-222"), true, false)
	staleIdx := plant(filepath.Join(dir, "index.json.tmp-333"), false, true)
	freshIdx := plant(filepath.Join(dir, "index.json.tmp-444"), false, false)

	reopened, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{staleObj, staleIdx} {
		if _, err := os.Lstat(p); !os.IsNotExist(err) {
			t.Errorf("stale temporary kept: %s", p)
		}
	}
	for _, p := range []string{freshObj, freshIdx, obj} {
		if _, err := os.Lstat(p); err != nil {
			t.Errorf("fresh entry removed: %s (%v)", p, err)
		}
	}
	if got, ok, err := reopened.Get(k); err != nil || !ok || len(got.Files) != 1 {
		t.Fatalf("reopened store lost the bundle: ok=%v err=%v", ok, err)
	}
}
