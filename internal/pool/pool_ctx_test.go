package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
)

// TestMapCtxPreCancelled: an already-cancelled context returns promptly
// without dispatching a single call.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	for _, workers := range []int{1, 8} {
		start := time.Now()
		out, err := MapCtx(ctx, workers, 1000, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: got partial results on cancelled ctx", workers)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("workers=%d: pre-cancelled MapCtx took %v", workers, d)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("pre-cancelled ctx still dispatched %d calls", calls.Load())
	}
}

// TestMapCtxMidFlightCancel: cancelling while workers are busy stops the
// run promptly and surfaces ctx.Err(), never a partial result.
func TestMapCtxMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	type result struct {
		out []int
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := MapCtx(ctx, 4, 100, func(i int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			// Cooperative worker: block until cancelled or released.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-release:
				return i, nil
			}
		})
		done <- result{out, err}
	}()
	<-started
	cancel()
	start := time.Now()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
		if r.out != nil {
			t.Fatal("partial results returned from cancelled run")
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("cancelled MapCtx returned after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MapCtx did not return after cancellation")
	}
	close(release)
}

// TestMapCtxDeadline: an expiring deadline surfaces DeadlineExceeded.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := MapCtx(ctx, 2, 1000, func(i int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Second):
			return i, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchMinCtxPreCancelled mirrors the Map test for the speculative
// search.
func TestSearchMinCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		start := time.Now()
		idx, _, err := SearchMinCtx(ctx, workers, 1000, func(i int) (string, error) {
			return "found", nil
		})
		if !errors.Is(err, context.Canceled) || idx != -1 {
			t.Fatalf("workers=%d: (%d, %v), want (-1, context.Canceled)", workers, idx, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("workers=%d: pre-cancelled SearchMinCtx took %v", workers, d)
		}
	}
}

// TestSearchMinCtxMidFlightCancel: cancellation between probe windows
// aborts the search promptly.
func TestSearchMinCtxMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	type result struct {
		idx int
		err error
	}
	done := make(chan result, 1)
	go func() {
		idx, _, err := SearchMinCtx(ctx, 4, 10_000, func(i int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Second):
				return 0, errors.New("infeasible")
			}
		})
		done <- result{idx, err}
	}()
	<-started
	cancel()
	start := time.Now()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) || r.idx != -1 {
			t.Fatalf("(%d, %v), want (-1, context.Canceled)", r.idx, r.err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("cancelled SearchMinCtx returned after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SearchMinCtx did not return after cancellation")
	}
}

// TestWorkerPanicBecomesError: a panicking worker function surfaces as a
// *guard.InternalError through the normal error path instead of crashing
// the process, on both primitives and at both worker counts.
func TestWorkerPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(context.Background(), workers, 10, func(i int) (int, error) {
			if i == 2 {
				panic("worker bug")
			}
			return i, nil
		})
		var ie *guard.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("Map workers=%d: err = %v, want *guard.InternalError", workers, err)
		}
		if ie.Value != "worker bug" {
			t.Errorf("panic value = %v", ie.Value)
		}

		idx, _, err := SearchMinCtx(context.Background(), workers, 3, func(i int) (int, error) {
			panic("probe bug")
		})
		if idx != -1 {
			t.Fatalf("SearchMin workers=%d: idx = %d", workers, idx)
		}
		if !errors.As(err, &ie) {
			t.Fatalf("SearchMin workers=%d: err = %v, want *guard.InternalError", workers, err)
		}
	}
}
