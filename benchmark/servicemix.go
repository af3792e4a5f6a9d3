package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// svcReq is one job a client submits: a roster circuit at a seed,
// without the random-T_0 arm (the part of the paper's experiment a
// client checking its own circuit does not need), every other setting at
// the service's default.
type svcReq struct {
	Roster string `json:"roster"`
	Config struct {
		Seed       int64 `json:"seed"`
		SkipRandom bool  `json:"skip_random"`
	} `json:"config"`
}

func newSvcReq(roster string, seed int64) svcReq {
	r := svcReq{Roster: roster}
	r.Config.Seed = seed
	r.Config.SkipRandom = true
	return r
}

func (r svcReq) request() jobs.Request {
	return jobs.Request{Roster: r.Roster, Config: workload.Config{Seed: r.Config.Seed, SkipRandom: r.Config.SkipRandom}}
}

// bundle is one artifact bundle the store holds before the clients start.
type bundle struct {
	req svcReq
	key jobs.Key
	a   *jobs.Artifacts
}

// makeBundles computes the pre-filled bundles: the service's own
// pipeline, run once per run on a storeless queue with one worker per
// CPU. These are the workload's inputs; fillStore writes them to disk.
func makeBundles(reqs []svcReq) ([]bundle, error) {
	q := jobs.NewQueue(nil, jobs.Options{Workers: runtime.NumCPU(), MaxPending: len(reqs) + 1})
	defer q.Close(context.Background())
	js := make([]*jobs.Job, len(reqs))
	for i, r := range reqs {
		j, err := q.Submit(r.request())
		if err != nil {
			return nil, err
		}
		js[i] = j
	}
	out := make([]bundle, len(reqs))
	for i, j := range js {
		if err := j.Wait(context.Background()); err != nil {
			return nil, fmt.Errorf("pre-fill %s seed %d: %w", reqs[i].Roster, reqs[i].Config.Seed, err)
		}
		out[i] = bundle{req: reqs[i], key: j.Key, a: j.Artifacts()}
	}
	return out, nil
}

// service is a running compactd equivalent on loopback.
type service struct {
	store  *jobs.Store
	queue  *jobs.Queue
	srv    *http.Server
	url    string
	served chan error
}

// fillStore puts every bundle into a fresh store in dir.
func fillStore(dir string, bundles []bundle) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := jobs.OpenStore(dir, 256<<20)
	if err != nil {
		return err
	}
	for _, bu := range bundles {
		if err := store.Put(bu.key, bu.a); err != nil {
			return err
		}
	}
	return nil
}

// startService opens the store in dir and serves the API with compactd's
// defaults on a loopback port. It returns once /healthz answers.
func startService(dir string) (*service, error) {
	store, err := jobs.OpenStore(dir, 256<<20)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	q := jobs.NewQueue(store, jobs.Options{Workers: 1, MaxPending: 64})
	sv := &service{
		store: store, queue: q,
		srv:    &http.Server{Handler: jobs.NewServer(q).Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { sv.served <- sv.srv.Serve(ln) }()
	resp, err := http.Get(sv.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

// stop shuts the server down, waits for Serve to return, and drains the
// queue.
func (sv *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	<-sv.served
	if qerr := sv.queue.Close(ctx); err == nil {
		err = qerr
	}
	return err
}

// reqResult is what a client saw for one request.
type reqResult struct {
	cold    bool
	latency float64 // seconds from POST to manifest received
	key     string
}

// loopStats accumulates one closed-loop run.
type loopStats struct {
	mu           sync.Mutex
	results      []reqResult
	blocks       []sample
	lastT        time.Time
	lastCPU      float64
	block        int
	cold         []string // keys computed during the loop
	wall         float64
	errors       int
	errorSamples []string
}

func (ls *loopStats) add(r reqResult, err error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err != nil {
		ls.errors++
		if len(ls.errorSamples) < 5 {
			ls.errorSamples = append(ls.errorSamples, err.Error())
		}
	} else {
		ls.results = append(ls.results, r)
		if r.cold {
			ls.cold = append(ls.cold, r.key)
		}
	}
	if n := len(ls.results) + ls.errors; n%ls.block == 0 {
		now, cpu := time.Now(), cpuSeconds()
		s := sample{now.Sub(ls.lastT).Seconds(), cpu - ls.lastCPU}
		ls.blocks = append(ls.blocks, s)
		fmt.Fprintf(os.Stderr, "operation: wall %.3fs cpu %.3fs\n", s.wall, s.cpu)
		ls.lastT, ls.lastCPU = now, cpu
	}
}

func (ls *loopStats) latencies(cold bool) []float64 {
	var v []float64
	for _, r := range ls.results {
		if r.cold == cold {
			v = append(v, r.latency)
		}
	}
	return v
}

// serviceMix runs a closed loop of clients against the service: most
// requests re-submit a cached key (POST, 200 cached, GET manifest); the
// rest submit a new seed, poll until it has been computed, then fetch its
// manifest.
func serviceMix(b *bench) error {
	r := rand.New(rand.NewSource(b.seed))
	base := r.Int63n(1 << 40)
	circuits := b.size.svcCircuits
	reqs := make([]svcReq, b.size.svcPrefill)
	for i := range reqs {
		reqs[i] = newSvcReq(circuits[i%len(circuits)], base+int64(i))
	}
	bundles, err := makeBundles(reqs)
	if err != nil {
		return err
	}
	ncyc, detected := 0, 0
	for _, bu := range bundles {
		row, err := jobs.DecodeRow(bu.a)
		if err != nil {
			return err
		}
		ncyc += row.Proposed.Final.Cycles(row.Nsv)
		detected += row.Proposed.FinalDetected
		b.digest.Write([]byte(bu.key.String()))
	}

	dir := filepath.Join(b.out, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := fillStore(dir, bundles); err != nil {
		return err
	}

	// Set-up: compactd starting over the pre-filled cache directory,
	// until /healthz answers. Filling the store writes thousands of small
	// files, whose cost on a shared disk swings several-fold between runs,
	// so it is done once above and measured per call by jobs.store_put_ms.
	var sv *service
	setups := 9
	if b.traced {
		setups = 1
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return err
			}
		}
		runtime.GC() // start each set-up from a collected heap
		start := time.Now()
		if sv, err = startService(dir); err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		fmt.Fprintf(os.Stderr, "set-up: %.4fs\n", setupTimes[i])
	}
	b.check(sv.store.Stats().Objects == len(bundles), "reopened store holds %d bundles, want %d",
		sv.store.Stats().Objects, len(bundles))
	defer sv.stop()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.size.svcClients}}
	defer client.CloseIdleConnections()
	lp := &loop{b: b, sv: sv, client: client, bundles: bundles, coldBase: base + 1<<30}

	if !b.traced {
		ls := lp.run(b.seconds, nil, 0, 0)
		b.checkLoop(ls)
		b.checkCold(lp, ls.cold, nil, 0)
		b.setOps(ls.blocks)
		b.set("setup_s", median(setupTimes), "s")
		b.set("ncyc", float64(ncyc), "cycles")
		b.set("detected", float64(detected), "faults")
		return nil
	}

	// Traced: half the time untraced, half traced, then the layers the
	// HTTP path only reaches from inside, timed by direct calls on the
	// workload's own keys and inputs.
	untraced := lp.run(b.seconds/2, nil, 0, 0)
	b.checkLoop(untraced)
	t := newTracer()
	root := t.begin("service-mix", 0, "workload")
	before := sv.queue.Metrics()
	ls := lp.run(b.seconds/2, t, root, 1)
	t.end(root, nil)
	after := sv.queue.Metrics()
	b.checkLoop(ls)

	direct := t.begin("direct", 0, "direct")
	dr := rand.New(rand.NewSource(b.seed + 1))
	for i := 0; i < 50; i++ {
		bu := bundles[dr.Intn(len(bundles))]
		id := t.begin("direct", direct, "jobs.submit_hit")
		j, err := sv.queue.Submit(bu.req.request())
		t.end(id, nil)
		state := jobs.State("")
		if err == nil {
			state, _, _ = j.Snapshot()
		}
		b.check(state == jobs.StateCached, "direct submit of a pre-filled key: state %q, err %v", state, err)
		id = t.begin("direct", direct, "jobs.store_get")
		a, ok, err := sv.store.Get(bu.key)
		t.end(id, nil)
		b.check(err == nil && ok && sameBundle(a, bu.a), "direct store get of %s", bu.key)
		id = t.begin("direct", direct, "jobs.decode")
		_, err = jobs.DecodeRow(a)
		t.end(id, nil)
		b.check(err == nil, "decode %s: %v", bu.key, err)
		id = t.begin("direct", direct, "jobs.store_put")
		err = sv.store.Put(bu.key, bu.a)
		t.end(id, nil)
		b.check(err == nil, "direct store put of %s: %v", bu.key, err)
	}
	b.checkCold(lp, ls.cold, t, direct)
	t.end(direct, nil)

	b.set("jobs.cache_hits", float64(after.CacheHits-before.CacheHits), "count")
	b.set("jobs.computations", float64(after.Computations-before.Computations), "count")
	b.set("jobs.failures", float64(after.Failures-before.Failures), "count")
	b.set("jobs.store_entries", float64(sv.store.Stats().Objects), "count")
	b.set("jobs.jobs_per_s", float64(len(ls.results))/ls.wall, "1/s")
	hits, colds := ls.latencies(false), ls.latencies(true)
	tailHit, pctHit := tail(hits, 0.99)
	tailCold, pctCold := tail(colds, 0.90)
	b.set("jobs.hit_p50_ms", 1000*median(hits), "ms")
	b.set("jobs.hit_tail_ms", 1000*tailHit, "ms")
	b.set("jobs.hit_tail_pct", pctHit, "%")
	b.set("jobs.hit_samples", float64(len(hits)), "count")
	b.set("jobs.cold_p50_ms", 1000*median(colds), "ms")
	b.set("jobs.cold_tail_ms", 1000*tailCold, "ms")
	b.set("jobs.cold_tail_pct", pctCold, "%")
	b.set("jobs.cold_samples", float64(len(colds)), "count")
	var uw, tw []float64
	for _, s := range untraced.blocks {
		uw = append(uw, s.wall)
	}
	for _, s := range ls.blocks {
		tw = append(tw, s.wall)
	}
	return b.setLayers(t, root, median(tw), median(uw))
}

// checkLoop counts every request of a loop as one checked operation.
func (b *bench) checkLoop(ls *loopStats) {
	b.attempted += len(ls.results) + ls.errors
	b.failed += ls.errors
	for _, e := range ls.errorSamples {
		fmt.Fprintln(os.Stderr, "request failed:", e)
	}
	if len(ls.blocks) == 0 {
		b.check(false, "no block of %d requests completed", b.size.svcBlock)
	}
}

// checkCold recomputes one cold key per circuit outside the service (by
// the traced replay when t is set) and requires every file the service
// serves for it to be byte-identical to the recomputed bundle.
func (b *bench) checkCold(lp *loop, keys []string, t *tracer, parent int) {
	seen := map[string]bool{}
	for _, k := range keys {
		req := lp.coldReq[k]
		if seen[req.Roster] {
			continue
		}
		seen[req.Roster] = true
		e, _ := gen.FindEntry(req.Roster)
		want, _, err := replay(t, parent, e, req.request().Config)
		if err != nil {
			b.check(false, "recompute %s: %v", k, err)
			continue
		}
		ok := true
		for name, data := range want.Files {
			got, err := lp.get(fmt.Sprintf("/v1/artifacts/%s/%s", k, name))
			ok = ok && err == nil && bytes.Equal(got, data)
		}
		b.check(ok, "cold key %s: served files differ from a direct computation", k)
	}
}

// loop drives the closed-loop clients.
type loop struct {
	b        *bench
	sv       *service
	client   *http.Client
	bundles  []bundle
	coldBase int64

	mu      sync.Mutex
	coldN   int
	coldReq map[string]svcReq
}

// run lets the clients loop for the given seconds; phase keeps the
// random scripts of successive runs apart.
func (lp *loop) run(seconds float64, t *tracer, root int, phase int64) *loopStats {
	runtime.GC()
	ls := &loopStats{block: lp.b.size.svcBlock, lastT: time.Now(), lastCPU: cpuSeconds()}
	start := ls.lastT
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < lp.b.size.svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(lp.b.seed ^ (phase<<32+int64(c+1))*0x5851F42D4C957F2D))
			// Cold requests come on a fixed schedule, staggered between
			// clients, so every block of requests carries the same share
			// of pipeline work; the random script only picks the keys.
			every := lp.b.size.svcColdEvery
			offset := c * every / lp.b.size.svcClients
			for i := 0; time.Now().Before(deadline); i++ {
				trace := fmt.Sprintf("c%d-%d-%d", c, phase, i)
				if (i+offset)%every == every-1 {
					res, err := lp.cold(t, root, trace)
					ls.add(res, err)
				} else {
					res, err := lp.hit(t, root, trace, lp.bundles[r.Intn(len(lp.bundles))])
					ls.add(res, err)
				}
			}
		}(c)
	}
	wg.Wait()
	ls.wall = time.Since(start).Seconds()
	return ls
}

type jobReply struct {
	ID    string     `json:"id"`
	Key   string     `json:"key"`
	State jobs.State `json:"state"`
}

type manifest struct {
	Key   string `json:"key"`
	Files []struct {
		Name string `json:"name"`
		Size int    `json:"size"`
	} `json:"files"`
}

// hit re-submits a pre-filled key and checks the manifest it is served.
func (lp *loop) hit(t *tracer, root int, trace string, bu bundle) (reqResult, error) {
	start := time.Now()
	sp := t.begin(trace, root, "http.request")
	defer t.end(sp, nil)
	rep, err := lp.submit(t, sp, trace, bu.req, http.StatusOK)
	if err != nil {
		return reqResult{}, err
	}
	if rep.State != jobs.StateCached || rep.Key != bu.key.String() {
		return reqResult{}, fmt.Errorf("hit %s: state %q key %s", bu.key, rep.State, rep.Key)
	}
	m, err := lp.manifest(t, sp, trace, rep.Key)
	if err != nil {
		return reqResult{}, err
	}
	if !manifestMatches(m, bu) {
		return reqResult{}, fmt.Errorf("hit %s: manifest differs from the pre-filled bundle", bu.key)
	}
	return reqResult{latency: time.Since(start).Seconds(), key: rep.Key}, nil
}

// pollInterval is how often a client waiting for a cold job asks for its
// status; against jobs of 10-300 ms it adds about a millisecond.
const pollInterval = 2 * time.Millisecond

// cold submits a new seed, polls the job until it is done, and fetches
// its manifest.
func (lp *loop) cold(t *tracer, root int, trace string) (reqResult, error) {
	lp.mu.Lock()
	n := lp.coldN
	lp.coldN++
	lp.mu.Unlock()
	circuits := lp.b.size.svcCircuits
	req := newSvcReq(circuits[n%len(circuits)], lp.coldBase+int64(n))

	start := time.Now()
	sp := t.begin(trace, root, "http.request")
	defer t.end(sp, nil)
	rep, err := lp.submit(t, sp, trace, req, http.StatusAccepted)
	if err != nil {
		return reqResult{}, err
	}
	lp.mu.Lock()
	if lp.coldReq == nil {
		lp.coldReq = map[string]svcReq{}
	}
	lp.coldReq[rep.Key] = req
	lp.mu.Unlock()

	// The client polls the job's status rather than following its SSE
	// feed: subscribing to a running job can crash the server, because
	// Job.Follow's backlog goroutine may send on a channel that
	// Job.finish has already closed.
	id := t.begin(trace, sp, "http.wait")
	queued := time.Now()
	wait := time.Duration(-1)
	var final jobReply
	for {
		data, err := lp.get("/v1/jobs/" + rep.ID)
		if err == nil {
			err = json.Unmarshal(data, &final)
		}
		if err != nil {
			t.end(id, nil)
			return reqResult{}, fmt.Errorf("cold %s: %w", rep.Key, err)
		}
		if wait < 0 && final.State != jobs.StateQueued {
			wait = time.Since(queued)
		}
		if final.State == jobs.StateDone || final.State == jobs.StateFailed {
			break
		}
		time.Sleep(pollInterval)
	}
	t.end(id, map[string]float64{"queue_wait_s": wait.Seconds()})
	if final.State != jobs.StateDone {
		return reqResult{}, fmt.Errorf("cold %s: state %q", rep.Key, final.State)
	}
	m, err := lp.manifest(t, sp, trace, rep.Key)
	if err != nil {
		return reqResult{}, err
	}
	if len(m.Files) == 0 || m.Key != rep.Key {
		return reqResult{}, fmt.Errorf("cold %s: empty manifest", rep.Key)
	}
	return reqResult{cold: true, latency: time.Since(start).Seconds(), key: rep.Key}, nil
}

func (lp *loop) submit(t *tracer, parent int, trace string, req svcReq, want int) (jobReply, error) {
	id := t.begin(trace, parent, "http.submit")
	defer t.end(id, nil)
	body, _ := json.Marshal(req)
	resp, err := lp.client.Post(lp.sv.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, err
	}
	defer resp.Body.Close()
	var rep jobReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return jobReply{}, fmt.Errorf("submit %s: %s: %w", req.Roster, resp.Status, err)
	}
	if resp.StatusCode != want {
		return jobReply{}, fmt.Errorf("submit %s: %s, want %d", req.Roster, resp.Status, want)
	}
	return rep, nil
}

func (lp *loop) manifest(t *tracer, parent int, trace, key string) (manifest, error) {
	id := t.begin(trace, parent, "http.manifest")
	defer t.end(id, nil)
	var m manifest
	data, err := lp.get("/v1/artifacts/" + key)
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	return m, err
}

// get fetches path and returns the body of a 200 reply.
func (lp *loop) get(path string) ([]byte, error) {
	resp, err := lp.client.Get(lp.sv.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func manifestMatches(m manifest, bu bundle) bool {
	if m.Key != bu.key.String() || len(m.Files) != len(bu.a.Files) {
		return false
	}
	names := make([]string, 0, len(m.Files))
	for _, f := range m.Files {
		data, ok := bu.a.Files[f.Name]
		if !ok || len(data) != f.Size {
			return false
		}
		names = append(names, f.Name)
	}
	return sort.StringsAreSorted(names)
}
