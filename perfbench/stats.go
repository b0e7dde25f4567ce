package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a tail percentile needs above it to
// be read as a tail. Each call kind's percentile is fixed in its kind
// (harness.go) so that every run compares the same percentile; a run that
// leaves fewer samples beyond it reports the value and marks it noisy.
const minBeyond = 10

// lat collects per-call latencies (ns) for a fixed set of call kinds. One
// lat belongs to one client goroutine; clients are merged after they stop.
type lat struct {
	samples [][]int64 // by call kind
	// perSec counts the calls started in each second of the phase, so the
	// report shows how steady the rate was within the run.
	start  time.Time
	perSec []int64
}

func newLat(start time.Time, kinds int) *lat {
	return &lat{samples: make([][]int64, kinds), start: start}
}

func (l *lat) add(kind int, t0 time.Time, d time.Duration) {
	l.samples[kind] = append(l.samples[kind], int64(d))
	s := int(t0.Sub(l.start) / time.Second)
	for len(l.perSec) <= s {
		l.perSec = append(l.perSec, 0)
	}
	l.perSec[s]++
}

func (l *lat) merge(o *lat) {
	for i := range o.samples {
		l.samples[i] = append(l.samples[i], o.samples[i]...)
	}
	for i, n := range o.perSec {
		for len(l.perSec) <= i {
			l.perSec = append(l.perSec, 0)
		}
		l.perSec[i] += n
	}
}

func (l *lat) count() int {
	n := 0
	for _, s := range l.samples {
		n += len(s)
	}
	return n
}

// pooled summarizes the samples of some call kinds as one distribution
// with its tail at percentile tail.
func (l *lat) pooled(tail float64, kinds ...int) dist {
	var all []int64
	for _, k := range kinds {
		all = append(all, l.samples[k]...)
	}
	return summarize(all, tail)
}

// dist is one call kind's latency distribution.
type dist struct {
	n        int
	mean     float64 // ns
	p50      float64 // ns
	tail     float64 // ns
	tailPct  float64
	tailSeen int // samples beyond the tail value
}

// thin reports a tail with fewer than minBeyond samples beyond it.
func (d dist) thin() bool { return d.tailSeen < minBeyond }

// summarize sorts s in place and returns its mean, its median and its
// tailPct-th percentile.
func summarize(s []int64, tailPct float64) dist {
	if len(s) == 0 {
		return dist{tailPct: tailPct}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	i := rank(len(s), tailPct)
	return dist{n: len(s), mean: sum / float64(len(s)), p50: float64(s[rank(len(s), 50)]),
		tail: float64(s[i]), tailPct: tailPct, tailSeen: len(s) - 1 - i}
}

// rank is the index of the nearest-rank p-th percentile of n sorted
// samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns num/den, 0 when den is 0 (the base count is reported next
// to every ratio, so a 0/0 reads as "no work", not as a measured zero).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
