// Package sweep is the parallel experiment engine: it fans independent,
// deterministically-seeded simulation runs out across a bounded worker pool
// and collects their results in submission order.
//
// Determinism contract: every job owns its entire mutable state — its
// network, its RNGs (seeded from the job's own seed), its stats collectors.
// Jobs communicate only through their return values, which the runner
// stores at the job's index. Under that contract the assembled result slice
// is byte-identical whatever the worker count, so parallel sweeps reproduce
// the sequential runner exactly; internal/exp's determinism tests and the
// -race run of this package enforce it.
//
// The pool is bounded: at most Workers(j) jobs run concurrently, excess
// jobs queue. Workers(0) resolves to GOMAXPROCS, which is what the CLIs'
// -j 0 default maps to.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// progress tracks finished-job counts for WithProgress callbacks. Workers
// finish jobs concurrently, so the count lives behind a mutex; the callback
// runs under the same mutex, which serializes invocations and makes the
// observed done sequence monotonic (an atomic counter would allow a later
// count to be delivered before an earlier one).
type progress struct {
	mu   sync.Mutex
	done int // guarded by mu

	total int
	fn    func(done, total int)
}

// finish records one finished job and reports it to the callback, if any.
func (p *progress) finish() {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}

// Workers resolves a -j style worker-count flag: values <= 0 select
// GOMAXPROCS (one worker per schedulable CPU).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Option configures a Run call.
type Option func(*options)

type options struct {
	progress func(done, total int)
}

// WithProgress registers fn to be invoked after every job finishes (whether
// it succeeded or failed) with the count of finished jobs so far and the
// total. On parallel runs fn is called from worker goroutines, possibly
// concurrently, so it must be safe for concurrent use.
func WithProgress(fn func(done, total int)) Option {
	return func(o *options) { o.progress = fn }
}

// Run executes n independent jobs on a pool of Workers(workers) goroutines
// and returns their results in index order. fn must be safe for concurrent
// invocation with distinct indices and must not share mutable state between
// indices. If any job fails, Run returns the error of the lowest-indexed
// failing job (matching what a sequential loop would have surfaced first)
// after all started jobs finish; results are discarded on error.
//
// A panicking job is converted into an error (a panic inside a worker
// goroutine would otherwise kill the process with no context about which
// job died); the same conversion applies on the sequential path so both
// behave identically.
//
// With one worker — or one job — Run degenerates to a plain sequential
// loop on the calling goroutine, preserving exact call order.
func Run[T any](workers, n int, fn func(i int) (T, error), opts ...Option) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	prog := &progress{total: n, fn: o.progress}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			r, err := call(i, fn)
			prog.finish()
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := call(i, fn)
				prog.finish()
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// call invokes fn(i), converting a panic into an error.
func call[T any](i int, fn func(i int) (T, error)) (r T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: job %d panicked: %v", i, p)
		}
	}()
	return fn(i)
}
