package serve

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutines returns the stacks of every live goroutine but the caller,
// keyed by their "goroutine N [" header.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue
		}
		id, _, _ := strings.Cut(g, "[")
		out[id] = g
	}
	return out
}

// startedByNew returns the stacks of the live goroutines serve.New started
// that contain every one of frames.
func startedByNew(frames ...string) []string {
	var out []string
	for _, g := range goroutines() {
		match := strings.Contains(g, "created by zipflm/internal/serve.New")
		for _, f := range frames {
			match = match && strings.Contains(g, f)
		}
		if match {
			out = append(out, g)
		}
	}
	return out
}

// TestConcurrentCloseWaitsForShutdown: under closed-loop load, a Close that
// starts while another is shutting the server down returns, like the first,
// only once the shutdown has completed. The test holds the prefix cache's
// lock until a worker waits on it, so the first Close cannot finish while
// it is held, and a second Close that returned then would not have waited.
// Every submitter gets responses and then ErrShutdown, and no goroutine New
// started outlives the Closes.
func TestConcurrentCloseWaitsForShutdown(t *testing.T) {
	m := lstmModel() // builds the default tensor backend before the snapshot
	before := goroutines()
	s := New(m, Config{Workers: 2, MaxBatch: 4, QueueDepth: 16, PrefixEntries: 16})

	const clients = 8
	var served atomic.Int64
	errs := make([]error, clients)
	var submitters sync.WaitGroup
	for c := 0; c < clients; c++ {
		submitters.Add(1)
		go func(c int) {
			defer submitters.Done()
			for i := 0; ; i++ {
				// A fresh prompt each time: every request goes through the
				// prefix cache.
				if _, err := s.Submit(Request{Prompt: []int{1 + c, 1 + i%100}, N: 8, Seed: uint64(c*1000 + i)}); err != nil {
					errs[c] = err
					return
				}
				served.Add(1)
			}
		}(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for served.Load() < 2*clients && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if served.Load() == 0 {
		t.Fatal("no request was served before Close")
	}

	s.prefix.mu.Lock()
	for len(startedByNew("(*lruCache)")) == 0 {
		if time.Now().After(deadline) {
			s.prefix.mu.Unlock()
			t.Fatal("no worker reached the prefix cache")
		}
		time.Sleep(time.Millisecond)
	}
	firstDone := make(chan struct{})
	go func() {
		s.Close()
		close(firstDone)
	}()
	for closing := false; !closing; {
		s.mu.RLock()
		closing = s.closed
		s.mu.RUnlock()
	}
	secondDone := make(chan struct{})
	go func() {
		s.Close()
		close(secondDone)
	}()
	select {
	case <-secondDone:
		t.Error("a second Close returned while a worker was still running")
	case <-firstDone:
		t.Error("the first Close returned while a worker was still running")
	case <-time.After(50 * time.Millisecond):
	}
	s.prefix.mu.Unlock()
	<-firstDone
	<-secondDone
	if gs := startedByNew(); len(gs) > 0 {
		t.Errorf("both Closes returned with %d of New's goroutines running:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}

	submitters.Wait()
	for c, err := range errs {
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("submitter %d ended with %v, want ErrShutdown", c, err)
		}
	}
	if _, err := s.Submit(Request{Prompt: []int{3}, N: 1, Seed: 1}); !errors.Is(err, ErrShutdown) {
		t.Errorf("Submit after Close returned %v, want ErrShutdown", err)
	}

	// The submitters' goroutines wind down just after Done.
	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) > 0 {
		t.Fatalf("%d goroutines outlived Close:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}
