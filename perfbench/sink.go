package main

import (
	"fmt"
	"sync"
	"time"

	"dlbooster/internal/engine"
)

// sink receives every prediction of one system under test. It checks
// each predicted label against the reference decode of the same input,
// stamps when the prediction arrived, and records its latency. Emit
// callbacks from several engines may arrive concurrently.
type sink struct {
	want []int // expected label per corpus index (Prediction.ClientID)
	base time.Time

	mu         sync.Mutex
	cond       *sync.Cond
	delivered  int
	mismatched int
	// perKey counts answers per Prediction.Seq, so a lost or duplicated
	// item shows up in the conservation check.
	perKey []int32
	// at[i] is when the i-th prediction arrived, relative to base.
	at  []time.Duration
	lat []time.Duration
}

func newSink(want []int, keys int) *sink {
	s := &sink{want: want, base: time.Now(), perKey: make([]int32, keys)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// record books one prediction that arrived at now with the given
// latency.
func (s *sink) record(p engine.Prediction, now time.Time, latency time.Duration) {
	s.mu.Lock()
	if p.ClientID < 0 || p.ClientID >= len(s.want) || p.Label != s.want[p.ClientID] {
		s.mismatched++
	}
	if p.Seq >= 0 && p.Seq < len(s.perKey) {
		s.perKey[p.Seq]++
	}
	s.delivered++
	s.at = append(s.at, now.Sub(s.base))
	s.lat = append(s.lat, latency)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// count returns the predictions received so far.
func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// waitFor blocks until n predictions have arrived, or fails after
// timeout (a lost item must not hang the benchmark).
func (s *sink) waitFor(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	defer close(done)
	go func() {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-t.C:
			s.cond.Broadcast()
		case <-done:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.delivered < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d predictions arrived within %v", s.delivered, n, timeout)
		}
		s.cond.Wait()
	}
	return nil
}

// since returns the arrival offsets and latencies of predictions from
// index from on (copies, safe to use while the sink keeps receiving).
func (s *sink) since(from int) (at, lat []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.at[from:]...), append([]time.Duration(nil), s.lat[from:]...)
}

func (s *sink) mismatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mismatched
}

// keyCounts returns a copy of the per-key answer counts.
func (s *sink) keyCounts() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int32(nil), s.perKey...)
}
