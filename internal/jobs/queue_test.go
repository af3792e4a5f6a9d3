package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
)

// fastCfg keeps pipeline runs quick for the queue tests.
func fastCfg() workload.Config {
	return workload.Config{T0MaxLen: 80, RandomT0Len: 150, SkipRandom: true, SkipBaselines: true, SkipDynamic: true}
}

func newTestQueue(t *testing.T, store *Store, opt Options) *Queue {
	t.Helper()
	q := NewQueue(store, opt)
	t.Cleanup(func() {
		if err := q.Close(context.Background()); err != nil {
			t.Errorf("queue close: %v", err)
		}
	})
	return q
}

func TestSubmitValidation(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"no source", Request{}, nil},
		{"two sources", Request{Bench: benchBase, Roster: "b01"}, nil},
		{"unknown roster", Request{Roster: "no-such-circuit"}, nil},
		{"parse error", Request{Bench: "INPUT(G0"}, ErrParse},
		{"no flip-flops", Request{Bench: "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\n"}, ErrUnsupported},
		{"no inputs", Request{Bench: "OUTPUT(B)\nG1 = DFF(B)\nB = NOT(G1)\n"}, ErrUnsupported},
	}
	for _, tc := range cases {
		_, err := q.Submit(tc.req)
		if err == nil {
			t.Errorf("%s: Submit succeeded", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSingleFlight is the concurrent duplicate-submission arm: many
// goroutines submit the identical request; with a store present there
// is no window in which the pipeline can run twice (the in-flight map
// covers the run, the store covers everything after), so exactly one
// computation must happen.
func TestSingleFlight(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, store, Options{Workers: 2, MaxPending: 4})

	const n = 8
	jobsCh := make(chan *Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if err := j.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
			}
			jobsCh <- j
		}()
	}
	wg.Wait()
	close(jobsCh)

	var first *Artifacts
	for j := range jobsCh {
		a := j.Artifacts()
		if a == nil {
			t.Fatal("completed job has no artifacts")
		}
		if first == nil {
			first = a
			continue
		}
		if len(a.Files) != len(first.Files) {
			t.Fatalf("bundle shapes differ: %d vs %d files", len(a.Files), len(first.Files))
		}
		for name, data := range first.Files {
			if string(a.Files[name]) != string(data) {
				t.Errorf("file %s differs between duplicate submissions", name)
			}
		}
	}

	m := q.Metrics()
	if m.Computations != 1 {
		t.Errorf("pipeline ran %d times for %d identical submissions", m.Computations, n)
	}
	if m.Submitted != n {
		t.Errorf("submitted = %d, want %d", m.Submitted, n)
	}
	if m.Deduped+m.CacheHits != n-1 {
		t.Errorf("deduped %d + cache hits %d != %d", m.Deduped, m.CacheHits, n-1)
	}
}

// TestQueueFull fills the pending buffer with distinct jobs and checks
// the overflow submission is rejected with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1, MaxPending: 1})
	cfg := fastCfg()
	var accepted []*Job
	sawFull := false
	// Distinct seeds give distinct keys; with one worker and one pending
	// slot, at most 1 (running) + 1 (pending) are in the system at once,
	// so by the 4th rapid submission the queue must have been full at
	// least once.
	for i := 0; i < 6; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		j, err := q.Submit(Request{Bench: benchBase, Config: c})
		switch {
		case err == nil:
			accepted = append(accepted, j)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if !sawFull {
		t.Skip("worker drained faster than submissions; queue never filled")
	}
	for _, j := range accepted {
		if err := j.Wait(context.Background()); err != nil {
			t.Errorf("accepted job failed: %v", err)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	q := NewQueue(nil, Options{Workers: 1})
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestCloseDrains submits work and closes: Close must not return until
// the in-flight job completed.
func TestCloseDrains(t *testing.T) {
	q := NewQueue(nil, Options{Workers: 1})
	j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Error("Close returned before the in-flight job finished")
	}
	if state, _, err := j.Snapshot(); state != StateDone || err != nil {
		t.Errorf("drained job: state=%s err=%v", state, err)
	}
}

// TestJobFollowReplaysBacklog subscribes after completion: the follower
// must still see every phase, then the channel must close.
func TestJobFollowReplaysBacklog(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ch, cancel := j.Follow()
	defer cancel()
	var phases []string
	for p := range ch {
		phases = append(phases, p)
	}
	want := []string{"atpg", "t0", "proposed"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

// TestJobFollowWhileFinishing races followers against a job's progress
// and completion: followers subscribe before, during and after the
// phases are emitted and the job finishes, and some cancel part-way.
// Nothing may send on a closed channel, a follower that reads to the end
// must see every phase in order, one that cancels must see a prefix and
// then a closed channel, and no follower goroutine may outlive its job.
// CI runs it with -race -count=10.
func TestJobFollowWhileFinishing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	phases := []string{"atpg", "t0", "proposed", "random", "baselines"}
	for round := 0; round < 50; round++ {
		j := &Job{ID: fmt.Sprint(round), state: StateRunning, done: make(chan struct{})}
		var wg sync.WaitGroup
		for f := 0; f < 8; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch, cancel := j.Follow()
				defer cancel()
				var got []string
				for p := range ch {
					got = append(got, p)
					if f%4 == 3 && len(got) == 2 {
						cancel() // the feed must still close
					}
				}
				if f%4 != 3 && !slices.Equal(got, phases) {
					t.Errorf("round %d follower %d: phases %v, want %v", round, f, got, phases)
				}
				if !slices.Equal(got, phases[:len(got)]) {
					t.Errorf("round %d follower %d: phases %v are not a prefix of %v", round, f, got, phases)
				}
			}()
		}
		for _, p := range phases {
			j.emit(p)
			runtime.Gosched()
		}
		j.finish(StateDone, nil, nil)
		wg.Wait()
	}
	checkGoroutines(t, baseline)
}
