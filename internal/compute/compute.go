// Package compute is the platform's bounded parallel map — the role the
// paper's Spark tier plays in the SciLens analytics stack (paper §3.3).
// The periodic jobs (model training, corpus re-indexing, firehose batch
// evaluation) run Map over their input. A Pool bounds how many tasks one
// job runs at once; results come back in input order.
package compute

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Pool bounds the tasks one job runs at once. The bound applies per job:
// concurrent jobs on one pool each get their own worker set, so a shared
// pool never deadlocks on nested or parallel use. The zero Pool is not
// usable; use NewPool.
type Pool struct {
	workers int
	// queueWait is the time from a job's start to a task's first
	// instruction (scheduler delay: the task's goroutine waiting for a
	// CPU); task is per-task execution time, whose _sum is the pool's
	// cumulative busy time (utilization = rate(sum) / workers).
	queueWait, task *obs.Histogram
}

// NewPool creates a pool with the given parallelism (< 1 → GOMAXPROCS)
// whose telemetry lives on reg (nil: a private registry).
func NewPool(workers int, reg *obs.Registry) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		queueWait: reg.NewDurationHistogram("scilens_compute_queue_wait_seconds",
			"Time a task waited from its job's start until it ran."),
		task: reg.NewDurationHistogram("scilens_compute_task_seconds",
			"Task execution time; the _sum is cumulative worker busy time."),
	}
}

// Map applies fn to every element of in and returns the results in input
// order. It splits in into min(workers, len(in)) contiguous ranges, one
// task each, that fill one result slice in place. A failing fn stops its
// range; Map then returns the error of the lowest failed range, wrapped so
// that errors.Is and errors.As see the cause.
func Map[T, U any](p *Pool, in []T, fn func(T) (U, error)) ([]U, error) {
	out := make([]U, len(in))
	n := min(p.workers, len(in))
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	enq := time.Now()
	for r := range n {
		go func() {
			defer wg.Done()
			start := time.Now()
			p.queueWait.ObserveDuration(start.Sub(enq))
			defer func() { p.task.ObserveDuration(time.Since(start)) }()
			for j := r * len(in) / n; j < (r+1)*len(in)/n; j++ {
				u, err := fn(in[j])
				if err != nil {
					errs[r] = fmt.Errorf("compute: element %d: %w", j, err)
					return
				}
				out[j] = u
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
