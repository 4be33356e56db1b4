package metrics

import (
	"math"
	"strings"
)

// Dist summarizes one named measurement across replicas. Count is the
// number of replicas in which the measurement occurred (missing values
// contribute no sample); with Count zero the statistics are all zero.
type Dist struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P95    float64 `json:"p95"`
	// CI95 is the half-width of the 95% confidence interval of the mean,
	// t·s/√n with Student's t at n-1 degrees of freedom and the sample
	// standard deviation: the paper's probabilistic-bounds argument needs
	// "how sure are we of this mean", not just how spread the replicas
	// are, and at the small replica counts experiments default to, the
	// normal approximation would understate the interval several-fold.
	// Zero when fewer than two samples exist (no interval is defined).
	CI95 float64 `json:"ci95"`
	Fmt  Format  `json:"format"`
}

// tCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (exact table through df=30, a +2.42/df correction to
// the normal quantile beyond — within 0.3% of the true value).
func tCrit95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return 0
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96 + 2.42/float64(df)
}

// Cell renders the distribution for a text table. A single-replica summary
// renders exactly like the underlying value so that `-replicas 1` output
// matches an unreplicated run; multiple replicas render mean ±stddev (the
// full distribution, including p95, is in the JSON form).
func (d Dist) Cell(replicas int) string {
	if d.Count == 0 {
		return "-"
	}
	if replicas <= 1 {
		return d.Fmt.Cell(d.Mean)
	}
	return d.Fmt.meanCell(d.Mean) + " ±" + d.Fmt.meanCell(d.StdDev)
}

// AggRecord is one aggregated row: the identity labels shared by the
// matched replica records plus a distribution per measurement.
type AggRecord struct {
	Labels []Label `json:"labels"`
	Values []Dist  `json:"values"`

	samples map[string]*Histogram
}

// Summary is the across-replica aggregation of a scenario's results.
// Records are matched by their ordered label tuple and kept in first-seen
// order, so the summary is a pure function of the replica results in seed
// order — independent of the parallelism that produced them.
type Summary struct {
	Title    string      `json:"title"`
	Replicas int         `json:"replicas"`
	Records  []AggRecord `json:"records"`
	Notes    []string    `json:"notes,omitempty"`
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// Aggregate merges replica results into per-record distributions. The
// title and notes are taken from the first replica (notes may interpolate
// replica-specific numbers; the first replica keeps them deterministic).
// Each measurement's observed values go into one Histogram, so every
// statistic is exact at any replica count. That holds O(replicas) values
// per measurement, which the replica results passed in already hold.
func Aggregate(results []*Result) *Summary {
	s := &Summary{Replicas: len(results)}
	// index holds positions, not pointers: appends may reallocate s.Records.
	index := map[string]int{}
	for _, r := range results {
		if r == nil {
			continue
		}
		if s.Title == "" {
			s.Title = r.Title
			s.Notes = append(s.Notes, r.Notes...)
		}
		for _, rec := range r.Records {
			key := labelKey(rec.Labels)
			at, ok := index[key]
			if !ok {
				at = len(s.Records)
				s.Records = append(s.Records, AggRecord{
					Labels:  append([]Label{}, rec.Labels...),
					samples: map[string]*Histogram{},
				})
				index[key] = at
			}
			agg := &s.Records[at]
			for _, v := range rec.Values {
				h, ok := agg.samples[v.Name]
				if !ok {
					h = &Histogram{}
					agg.samples[v.Name] = h
					agg.Values = append(agg.Values, Dist{Name: v.Name, Fmt: v.Fmt})
				}
				if !v.Missing {
					h.Observe(v.V)
				}
			}
		}
	}
	for ri := range s.Records {
		agg := &s.Records[ri]
		for vi := range agg.Values {
			d := &agg.Values[vi]
			h := agg.samples[d.Name]
			if d.Count = h.Count(); d.Count == 0 {
				continue
			}
			d.Mean = h.Mean()
			d.StdDev = h.StdDev()
			d.Min = h.Min()
			d.Max = h.Max()
			d.P95 = h.Percentile(95)
			if n := d.Count; n >= 2 {
				// Histogram reports the population form; the CI needs
				// the sample form (divisor n-1).
				sample := d.StdDev * math.Sqrt(float64(n)/float64(n-1))
				d.CI95 = tCrit95(n-1) * sample / math.Sqrt(float64(n))
			}
		}
		agg.samples = nil
	}
	return s
}

// Table renders the summary as a text table: identity labels followed by
// one distribution cell per measurement, plus — for replicated runs — a
// 95% confidence-interval column per measurement.
func (s *Summary) Table() *Table {
	rows := make([]tableRow, 0, len(s.Records))
	for _, rec := range s.Records {
		row := tableRow{labels: rec.Labels}
		for _, d := range rec.Values {
			row.cells = append(row.cells, namedCell{name: d.Name, cell: d.Cell(s.Replicas)})
			if s.Replicas > 1 {
				// With fewer than two samples no interval is defined — a
				// "±0.00" there would claim false exact certainty.
				ci := "-"
				if d.Count > 1 {
					ci = "±" + d.Fmt.meanCell(d.CI95)
				}
				row.cells = append(row.cells, namedCell{name: d.Name + " ci95", cell: ci})
			}
		}
		rows = append(rows, row)
	}
	notes := s.Notes
	if s.Replicas > 1 {
		notes = append([]string{"cells: mean ±stddev over replicas; ci95: 95% confidence half-width of the mean; min/max/p95 in the JSON form"}, s.Notes...)
	}
	return renderTable(s.Title, rows, notes)
}
