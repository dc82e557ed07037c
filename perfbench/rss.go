package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// rssEvery is how often the timed phase's resident set size is read,
// and rssWindows how many consecutive windows peak_rss_mb takes the
// median of.
const (
	rssEvery   = 5 * time.Millisecond
	rssWindows = 5
)

// rssSampler reads the process's resident set size every rssEvery
// while the timed phase runs. A true peak is one extreme sample, and
// on a small heap it moves by a tenth from run to run; the median of
// the windows' peaks does not. The sampler allocates nothing once
// started, so it moves neither alloc_mb_per_op nor the heap it reads.
type rssSampler struct {
	f       *os.File // /proc/self/statm
	buf     [256]byte
	page    float64 // MB per page
	samples []float64
	quit    chan struct{}
	done    chan struct{}
}

// startRSS takes a first sample and starts a sampler for a timed phase
// of the given length.
func startRSS(seconds float64) (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{
		f:       f,
		page:    float64(os.Getpagesize()) / (1 << 20),
		samples: make([]float64, 0, int(seconds/rssEvery.Seconds())+64),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	mb, ok := s.read()
	if !ok {
		f.Close()
		return nil, fmt.Errorf("cannot parse %s", f.Name())
	}
	s.samples = append(s.samples, mb)
	go s.loop()
	return s, nil
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			if mb, ok := s.read(); ok && len(s.samples) < cap(s.samples) {
				s.samples = append(s.samples, mb)
			}
		}
	}
}

// read parses the resident page count, statm's second field.
func (s *rssSampler) read() (float64, bool) {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if err != nil && err != io.EOF {
		return 0, false
	}
	field, pages := 0, 0
	for _, c := range s.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = 10*pages + int(c-'0')
		}
		if field > 1 {
			return float64(pages) * s.page, true
		}
	}
	return 0, false
}

// stop ends the sampler, waits for it, and returns the median over
// rssWindows consecutive windows of each window's largest sample, in
// MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	s.f.Close()
	size := len(s.samples) / rssWindows
	if size == 0 {
		return slices.Max(s.samples)
	}
	peaks := make([]float64, rssWindows)
	for k := range peaks {
		peaks[k] = slices.Max(s.samples[k*size : (k+1)*size])
	}
	return median(peaks)
}
