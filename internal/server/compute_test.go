package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestComputeEnforcesInflightCap(t *testing.T) {
	s := mustNew(t, Config{Timeout: 50 * time.Millisecond, MaxInflight: 1})
	started := make(chan struct{})
	block := make(chan struct{})
	hogDone := make(chan error, 1)
	go func() {
		_, err := s.compute(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-block
			return "slow", nil
		})
		hogDone <- err
	}()
	<-started

	// The only slot is held by a worker that outlives its deadline, so a
	// second request must time out waiting for admission.
	_, err := s.compute(context.Background(), func(context.Context) (any, error) { return "fast", nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated compute returned %v, want deadline exceeded", err)
	}

	// Once the hog finishes (releasing its slot), computes run again.
	// f runs on its caller's goroutine, so the hog's caller gets f's
	// late result, not the deadline.
	close(block)
	if err := <-hogDone; err != nil {
		t.Fatalf("hog compute failed unexpectedly: %v", err)
	}
	v, err := s.compute(context.Background(), func(context.Context) (any, error) { return "fast", nil })
	if err != nil || v != "fast" {
		t.Fatalf("compute after release = %v, %v", v, err)
	}
}
