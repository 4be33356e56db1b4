package main

import (
	"math"
	"sort"
)

// A reported tail is the median, over tailSegments consecutive stretches
// of a series in the order it was measured, of each stretch's tailPct-th
// percentile. A burst of interference from outside the program inflates
// the slowest operations of the stretch it falls in; it moves the tail
// only if it lasts into more than half of the stretches. A stretch must
// hold at least minTailSamples samples, so a shorter series is taken as
// one stretch, and a series shorter than that has no tail.
const (
	tailSegments   = 5
	tailPct        = 90
	minTailSamples = 10
)

// dist is the order statistics of one timing series.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// Segments is how many stretches the tail is the median of: 0 when
	// the series is too short to have a tail (Tail is then 0).
	Segments int
}

// summarize returns the median and tail of xs, which must be in the order
// the samples were measured.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if d.N == 0 {
		return d
	}
	s := sorted(xs)
	d.P50 = medianSorted(s)
	switch {
	case d.N >= tailSegments*minTailSamples:
		d.Segments = tailSegments
	case d.N >= minTailSamples:
		d.Segments = 1
	default:
		return d
	}
	tails := make([]float64, d.Segments)
	for i := range tails {
		tails[i] = percentileSorted(sorted(xs[i*d.N/d.Segments:(i+1)*d.N/d.Segments]), tailPct)
	}
	d.Tail = medianSorted(sorted(tails))
	return d
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted is the nearest-rank p-th percentile of a sorted series:
// the smallest sample with at least p% of the series at or below it.
func percentileSorted(s []float64, p int) float64 {
	return s[(len(s)*p+99)/100-1]
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median returns the median of xs (0 for an empty series).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs).P50
}

// span is one timed interval of the traced run. Parent indexes the span
// list (−1 for a root); children of one parent may overlap, as the shard
// spans of one window do.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, for every span, its duration minus the part of its
// interval that the union of its children covers. For a window span this
// is the wall time no phase accounts for.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// spans covers.
func covered(parent span, spans []span, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, parent.Start), min(spans[i].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, end int64 = 0, math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// phaseTotals sums a traced run's lockstep windows by phase, in ns.
type phaseTotals struct {
	Windows  int
	Shards   int
	ShardMax float64 // per window, the slowest shard's span
	ShardSum float64 // per window, all shard spans added up
	Barrier  float64 // last shard hook to the benchmark's barrier hook
}

// serialFraction is the Amdahl serial share of the windows' work: barrier
// time over barrier plus all shard time, i.e. what one core would spend.
func (t phaseTotals) serialFraction() float64 {
	return ratio(t.Barrier, t.Barrier+t.ShardSum)
}

// imbalance is how much longer the slowest shard ran than the mean shard:
// Σ max / Σ mean − 1, so 0 means perfectly even shards.
func (t phaseTotals) imbalance() float64 {
	if t.Shards == 0 || t.ShardSum == 0 {
		return 0
	}
	return t.ShardMax/(t.ShardSum/float64(t.Shards)) - 1
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
