package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// TestSchedulerStress hammers one engine with everything at once —
// concurrent sessions, interleaved submissions, deadline expiries, client
// cancellations, sessions dropped mid-flight — then closes the engine and
// verifies no goroutine leaked. Run under -race (CI does) this is the
// scheduler's concurrency-safety gate.
func TestSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test is slow")
	}
	client := newTestClient(t, 1)

	// Warm up process-wide lazy pools (internal/par workers, evaluator
	// caches) through a throwaway engine so the goroutine baseline below
	// only captures goroutines this test's engine is responsible for.
	func() {
		e := New(Config{Workers: 2})
		defer e.Close()
		sess, err := e.AttachSession(client.params, client.keys)
		if err != nil {
			t.Fatal(err)
		}
		job, err := e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
			Ops:       []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}},
			Outputs:   []string{"a"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	baseline := runtime.NumGoroutine()

	e := New(Config{Workers: 4, MaxActiveJobs: 64, DefaultDeadline: 30 * time.Second})

	const sessions = 4
	const jobsPerSession = 12
	sessIDs := make([]string, sessions)
	for i := range sessIDs {
		sess, err := e.AttachSession(client.params, client.keys)
		if err != nil {
			t.Fatal(err)
		}
		sessIDs[i] = sess.ID
	}

	ct := client.encrypt(t, []complex128{1, 0.5, -0.25})
	spec := func(sid string, nOps int) JobSpec {
		ops := []OpSpec{{ID: "op0", Op: "square", Args: []string{"x"}}}
		for i := 1; i < nOps; i++ {
			ops = append(ops, OpSpec{ID: fmt.Sprintf("op%d", i), Op: "add",
				Args: []string{fmt.Sprintf("op%d", i-1), fmt.Sprintf("op%d", i-1)}})
		}
		return JobSpec{
			SessionID: sid,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops:       ops,
			Outputs:   []string{ops[len(ops)-1].ID},
		}
	}

	var wg sync.WaitGroup
	for si, sid := range sessIDs {
		si, sid := si, sid
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(si)))
			for k := 0; k < jobsPerSession; k++ {
				s := spec(sid, 1+r.Intn(6))
				switch k % 4 {
				case 0: // normal completion
				case 1: // deadline too tight to finish: must expire, not hang
					s.Deadline = time.Duration(1+r.Intn(100)) * time.Microsecond
				case 2: // client walks away: cancelled Wait, job keeps running
				case 3: // session dropped mid-flight: running jobs keep their ref
				}
				job, err := e.Submit(s)
				if errors.Is(err, ErrBusy) {
					continue // backpressure under load is expected behavior
				}
				if err != nil {
					// DetachSession from a sibling iteration may have raced us.
					if strings.Contains(err.Error(), "unknown session") {
						continue
					}
					t.Errorf("session %d job %d: %v", si, k, err)
					continue
				}
				switch k % 4 {
				case 2:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(2000))*time.Microsecond)
					err = job.Wait(ctx)
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) && !isJobError(err) {
						t.Errorf("session %d job %d cancelled wait: %v", si, k, err)
					}
				case 3:
					e.DetachSession(sid)
					fallthrough
				default:
					err := job.Wait(context.Background())
					if k%4 == 1 {
						if err == nil {
							// A tiny deadline can still win the race and
							// finish; both outcomes are legal.
							continue
						}
						if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
							t.Errorf("session %d job %d: want deadline error, got %v", si, k, err)
						}
					} else if err != nil {
						t.Errorf("session %d job %d: %v", si, k, err)
					}
				}
			}
		}()
	}
	wg.Wait()

	e.Close()

	// Every engine goroutine (workers, per-job deadline/cancel aborts)
	// must exit once Close returns. Poll with a drain timeout: abort
	// goroutines race Close by one scheduling quantum.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			n := runtime.NumGoroutine()
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: %d after close, baseline %d\n%s", n, baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// isJobError reports whether err is a terminal job error (the job failed
// for its own reasons while we were waiting with a short context).
func isJobError(err error) bool {
	return strings.Contains(err.Error(), "deadline") || strings.Contains(err.Error(), "cancel")
}
