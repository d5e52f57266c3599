package main

import (
	"runtime/metrics"
	"time"
)

// Runtime metrics read without stopping the world.
const (
	heapLiveMetric   = "/gc/heap/live:bytes"
	heapAllocsMetric = "/gc/heap/allocs:bytes"
)

// heapWatch samples the live heap (the bytes the last garbage collection
// found reachable) until stopped and keeps the high-water mark.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLiveMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the peak in MB.
func (h *heapWatch) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// allocatedBytes returns the bytes allocated on the heap since the process
// started.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
