// Package par is the harness's bounded worker-pool runner. Every layer
// of the evaluation pipeline that fans independent simulations out
// across cores — the product matrix, the per-product measured metrics,
// the Figure-4 sensitivity sweeps — schedules through ForEach, so the
// whole tree shares one concurrency discipline: bounded workers,
// fail-fast cancellation, and a deterministic rule for which error
// surfaces.
//
// Determinism contract: jobs write results into caller-owned,
// index-addressed slots, so the assembled output of a parallel run is
// bit-identical to a serial run of the same jobs. Parallelism here is
// always *between* simulations; each simtime.Sim remains single-
// threaded and owns its seeded RNG streams.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(ctx, i) for every i in [0,n) on at most workers
// goroutines and blocks until all started jobs return. workers <= 0
// sizes the pool to runtime.NumCPU(); workers == 1 degenerates to a
// serial in-order loop on the calling goroutine's schedule.
//
// The first job failure cancels ctx, so jobs not yet started are
// skipped (fail fast); jobs already running are allowed to finish.
// The returned error is the error of the lowest-indexed job that
// reported one — not whichever failure happened to land first — so the
// surfaced error does not depend on goroutine scheduling whenever the
// failing job is deterministic. Cancellation errors are ignored unless
// the parent ctx itself was cancelled and no job failed, in which case
// ctx.Err() is returned.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	run := func() {
		// Check before claiming, and run whatever is claimed: indices are
		// claimed in order, so every job below a failed one was claimed
		// before that failure and still runs.
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(ctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}
	}

	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}

	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	if cancelled == nil && next.Load() < int64(n) {
		// Jobs went unclaimed with no failure: the parent was cancelled.
		cancelled = ctx.Err()
	}
	return cancelled
}

// ForEachAll is ForEach without fail-fast: every job runs regardless of
// sibling failures, and the per-index errors are all returned. This is
// the campaign runner's discipline — one failed experiment must not
// cancel the rest of a sweep — where ForEach's fail-fast is the right
// call inside a single experiment whose partial output is worthless.
//
// Cancellation of ctx is still honoured: jobs not yet claimed when ctx
// is cancelled are skipped with ctx.Err() recorded in their slot, and
// jobs already running are allowed to finish (graceful drain). All
// worker goroutines have exited by the time ForEachAll returns.
func ForEachAll(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) []error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(ctx, i)
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	return errs
}

// heartbeatKey carries a liveness callback through a context (see
// WithHeartbeat).
type heartbeatKey struct{}

// WithHeartbeat attaches beat to ctx. Long-running work executed under
// the returned context calls the beat function (via HeartbeatFrom) at
// natural progress points — the simulation kernel's interrupt stride —
// so an external watchdog can distinguish slow-but-progressing work
// from a wedged experiment.
func WithHeartbeat(ctx context.Context, beat func()) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, beat)
}

// HeartbeatFrom extracts the heartbeat callback attached by
// WithHeartbeat, or nil when ctx carries none.
func HeartbeatFrom(ctx context.Context) func() {
	beat, _ := ctx.Value(heartbeatKey{}).(func())
	return beat
}
