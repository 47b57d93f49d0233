// Package compute is the platform's bounded parallel map — the role the
// paper's Spark tier plays in the SciLens analytics stack (paper §3.3).
// The periodic jobs (model training, corpus re-indexing, firehose batch
// evaluation) run Map over their input, and the real-time engine overlaps
// independent indicator families with Run. A Pool bounds how many tasks
// one job runs at once; results come back in input order.
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
	// queueWait is the time a task spent blocked on a worker slot; task is
	// per-task execution time, whose _sum is the pool's cumulative busy
	// time (utilization = rate(sum) / workers).
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
			"Time a task waited for a free worker slot."),
		task: reg.NewDurationHistogram("scilens_compute_task_seconds",
			"Task execution time; the _sum is cumulative worker busy time."),
	}
}

// Workers returns the pool parallelism.
func (p *Pool) Workers() int { return p.workers }

// run executes fn(i) for every i in [0, n), at most p.workers at a time,
// and returns the error of the lowest-numbered failed task.
func (p *Pool) run(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	sem := make(chan struct{}, min(p.workers, n))
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			enq := time.Now()
			sem <- struct{}{}
			start := time.Now()
			p.queueWait.ObserveDuration(start.Sub(enq))
			errs[i] = fn(i)
			p.task.ObserveDuration(time.Since(start))
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the tasks concurrently, at most p.Workers() at a time, and
// returns the first failed task's error (by position). It is the entry
// point for fixed small fan-outs, e.g. overlapping independent indicator
// families within one evaluation.
func Run(p *Pool, tasks ...func() error) error {
	return p.run(len(tasks), func(i int) error {
		if err := tasks[i](); err != nil {
			return fmt.Errorf("compute: task %d: %w", i, err)
		}
		return nil
	})
}

// Map applies fn to every element of in and returns the results in input
// order. It splits in into min(p.Workers(), len(in)) contiguous ranges, one
// task each, that fill one result slice in place. A failing fn stops its
// range; Map then returns the error of the lowest failed range, wrapped so
// that errors.Is and errors.As see the cause.
func Map[T, U any](p *Pool, in []T, fn func(T) (U, error)) ([]U, error) {
	out := make([]U, len(in))
	n := min(p.workers, len(in))
	err := p.run(n, func(r int) error {
		lo, hi := r*len(in)/n, (r+1)*len(in)/n
		for j := lo; j < hi; j++ {
			u, err := fn(in[j])
			if err != nil {
				return fmt.Errorf("compute: element %d: %w", j, err)
			}
			out[j] = u
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
