package main

import (
	"runtime/metrics"
	"time"
)

// memSampleEvery is how often a memSampler reads the runtime's memory.
const memSampleEvery = 5 * time.Millisecond

// memSampler tracks, until stopped, the largest resident memory the Go
// runtime holds: everything it has mapped minus what it has returned to
// the operating system. Unlike the process's lifetime peak RSS, it can
// be taken per pass, so a run can report the median pass.
type memSampler struct {
	stop chan struct{}
	peak chan float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		peak := residentBytes()
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentBytes())
			case <-m.stop:
				m.peak <- max(peak, residentBytes())
				return
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns its peak in MiB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	return <-m.peak / (1 << 20)
}

// residentBytes is the memory the runtime has mapped and not released.
func residentBytes() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}
