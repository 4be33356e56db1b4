// Package metrics provides the measurement primitives used by every KARYON
// experiment: histograms with percentiles, success ratios, structured
// results with their across-replica aggregation, and the text table and
// CSV rendering of both.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates float64 observations and answers distribution
// queries. The zero value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Clone returns an independent copy: observing into or querying the
// clone never touches the original's samples (Percentile sorts in
// place, so a shallow struct copy would not be enough).
func (h *Histogram) Clone() Histogram {
	return Histogram{
		samples: append([]float64(nil), h.samples...),
		sorted:  h.sorted,
		sum:     h.sum,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation, or 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Median returns the 50th percentile.
func (h *Histogram) Median() float64 { return h.Percentile(50) }

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// StdDev returns the population standard deviation, or 0 with fewer than
// two samples.
func (h *Histogram) StdDev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Ratio is a success/total pair, e.g. delivered/sent.
type Ratio struct {
	Hits  int64
	Total int64
}

// Observe records one trial with the given outcome.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns Hits/Total, or 0 when no trials were recorded.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Format helpers used by experiment tables.

// FmtF formats a float with 2 decimal places.
func FmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// FmtF3 formats a float with 3 decimal places.
func FmtF3(v float64) string { return fmt.Sprintf("%.3f", v) }

// FmtPct formats a fraction as a percentage with 1 decimal place.
func FmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// FmtMs formats a value already in milliseconds.
func FmtMs(v float64) string { return fmt.Sprintf("%.2fms", v) }

// FmtInt formats an integer count.
func FmtInt(v int64) string { return fmt.Sprintf("%d", v) }
