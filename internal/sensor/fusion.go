package sensor

import (
	"errors"
	"sort"

	"karyon/internal/sim"
)

// ErrNoData indicates a fusion operator received no usable inputs.
var ErrNoData = errors.New("sensor: no usable readings to fuse")

// Interval is a closed value interval [Lo, Hi] asserted to contain the
// true value. It is marshaled in data sheets, hence the field tags.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Mid returns the interval midpoint.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Marzullo computes the fault-tolerant intersection of sensor intervals
// (Marzullo [26]): the smallest interval covered by at least n-f of the n
// inputs, where f is the number of tolerated faulty sensors. It returns
// ErrNoData when n == 0 or no point is covered by n-f intervals.
func Marzullo(intervals []Interval, f int) (Interval, error) {
	iv, _, err := marzulloScratch(intervals, f, nil)
	return iv, err
}

// marzulloEdge is one interval endpoint in the Marzullo sweep.
type marzulloEdge struct {
	x     float64
	delta int // +1 interval opens, -1 closes
}

// marzulloScratch is Marzullo with caller-provided edge scratch, so the
// per-control-cycle fusion on the car hot path does not allocate. It
// returns the (possibly grown) scratch for reuse.
func marzulloScratch(intervals []Interval, f int, edges []marzulloEdge) (Interval, []marzulloEdge, error) {
	n := len(intervals)
	if n == 0 {
		return Interval{}, edges, ErrNoData
	}
	if f < 0 {
		f = 0
	}
	need := n - f
	if need < 1 {
		need = 1
	}
	edges = edges[:0]
	for _, iv := range intervals {
		lo, hi := iv.Lo, iv.Hi
		if lo > hi {
			lo, hi = hi, lo
		}
		edges = append(edges, marzulloEdge{x: lo, delta: +1}, marzulloEdge{x: hi, delta: -1})
	}
	// Insertion sort by (x, opens-before-closes): edge sets are tiny (two
	// per input), and sort.Slice's closure allocates on a path that runs
	// every control cycle. Ties on (x, delta) commute, so the order is
	// deterministic where it matters.
	for i := 1; i < len(edges); i++ {
		e := edges[i]
		j := i - 1
		for j >= 0 && (edges[j].x > e.x || (edges[j].x == e.x && edges[j].delta < e.delta)) {
			edges[j+1] = edges[j]
			j--
		}
		edges[j+1] = e
	}
	depth := 0
	best := Interval{}
	found := false
	var openAt float64
	for _, e := range edges {
		depth += e.delta
		if e.delta > 0 && depth >= need {
			openAt = e.x
		}
		if e.delta < 0 && depth == need-1 {
			// The region [openAt, e.x] had coverage >= need.
			if !found || e.x-openAt < best.Width() {
				best = Interval{Lo: openAt, Hi: e.x}
				found = true
			}
		}
	}
	if !found {
		return Interval{}, edges, ErrNoData
	}
	return best, edges, nil
}

// ToInterval converts a reading to an interval assuming a symmetric error
// bound of halfWidth around the value.
func ToInterval(r Reading, halfWidth float64) Interval {
	if halfWidth < 0 {
		halfWidth = -halfWidth
	}
	return Interval{Lo: r.Value - halfWidth, Hi: r.Value + halfWidth}
}

// WeightedFusion combines readings using their validities as weights,
// discarding readings below minValidity. The fused validity is the
// coverage-weighted mean validity of the inputs used. Returns ErrNoData if
// nothing passes the filter.
func WeightedFusion(now sim.Time, readings []Reading, minValidity float64) (Reading, error) {
	var sumW, sumWV, sumVal float64
	used := 0
	for _, r := range readings {
		if r.Validity < minValidity || r.Validity <= 0 {
			continue
		}
		sumW += r.Validity
		sumWV += r.Validity * r.Value
		sumVal += r.Validity
		used++
	}
	if used == 0 || sumW == 0 {
		return Reading{}, ErrNoData
	}
	return Reading{
		Value:    sumWV / sumW,
		Time:     now,
		Validity: Clamp(sumVal / float64(used)),
		Source:   "fusion",
	}, nil
}

// MedianFusion returns the validity-filtered median reading value — robust
// against a minority of arbitrarily wrong sensors even when their claimed
// validity is high.
func MedianFusion(now sim.Time, readings []Reading, minValidity float64) (Reading, error) {
	vals := make([]float64, 0, len(readings))
	valSum := 0.0
	for _, r := range readings {
		if r.Validity < minValidity || r.Validity <= 0 {
			continue
		}
		vals = append(vals, r.Value)
		valSum += r.Validity
	}
	if len(vals) == 0 {
		return Reading{}, ErrNoData
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	v := vals[mid]
	if len(vals)%2 == 0 {
		v = (vals[mid-1] + vals[mid]) / 2
	}
	return Reading{
		Value:    v,
		Time:     now,
		Validity: Clamp(valSum / float64(len(vals))),
		Source:   "median-fusion",
	}, nil
}

// TemporalFilter implements temporal redundancy (Sec. IV-B's third
// redundancy option): an exponentially weighted moving average that rejects
// samples deviating from the running estimate by more than Gate, feeding
// rejected energy back into a validity discount.
type TemporalFilter struct {
	// Alpha is the EWMA smoothing factor in (0,1]; higher tracks faster.
	Alpha float64
	// Gate is the absolute innovation bound beyond which a sample is
	// treated as an outlier.
	Gate float64

	est      float64
	started  bool
	accepted int64
	rejected int64
}

// Update feeds one reading and returns the filtered estimate with a
// validity reflecting both the input validity and the recent rejection
// rate.
func (tf *TemporalFilter) Update(r Reading) Reading {
	alpha := tf.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if !tf.started {
		tf.est = r.Value
		tf.started = true
		tf.accepted++
		return r
	}
	innovation := r.Value - tf.est
	if tf.Gate > 0 && (innovation > tf.Gate || innovation < -tf.Gate) {
		tf.rejected++
		// Hold the estimate; pass through with degraded validity.
		out := r
		out.Value = tf.est
		out.Validity = Clamp(r.Validity * tf.acceptance())
		return out
	}
	tf.accepted++
	tf.est += alpha * innovation
	out := r
	out.Value = tf.est
	out.Validity = Clamp(r.Validity * tf.acceptance())
	return out
}

func (tf *TemporalFilter) acceptance() float64 {
	total := tf.accepted + tf.rejected
	if total == 0 {
		return 1
	}
	return float64(tf.accepted) / float64(total)
}

// Rejected returns how many samples the gate has rejected.
func (tf *TemporalFilter) Rejected() int64 { return tf.rejected }

// Reliable is the paper's abstract *reliable* sensor (Sec. IV-B): it fuses
// several redundant abstract sensors (component redundancy), optionally a
// model-based virtual sensor (analytical redundancy), and smooths the
// result over time (temporal redundancy), exposing one validity-annotated
// reading.
type Reliable struct {
	clock   sim.Clock
	inputs  []*Abstract
	half    float64 // interval half-width per input (for Marzullo)
	filter  *TemporalFilter
	minVal  float64
	faulty  int // tolerated faulty inputs f
	lastErr error
	// suspects names the inputs the last Read either excluded for low
	// validity or found disagreeing with the fused interval — the
	// system-level fault detection a single sensor cannot provide (e.g.
	// a permanent calibration offset).
	suspects []string

	// readings/intervals/edges are per-Read scratch, reused so the fusion
	// pipeline stops allocating on the control hot path.
	readings  []Reading
	intervals []Interval
	edges     []marzulloEdge
}

// NewReliable builds a reliable sensor over the given inputs. halfWidth is
// each input's assumed error bound; f is the number of tolerated faulty
// inputs; minValidity filters inputs before fusion.
func NewReliable(clock sim.Clock, inputs []*Abstract, halfWidth float64, f int, minValidity float64) *Reliable {
	return &Reliable{
		clock:  clock,
		inputs: inputs,
		half:   halfWidth,
		filter: &TemporalFilter{Alpha: 0.5},
		minVal: minValidity,
		faulty: f,
	}
}

// LastErr returns the most recent fusion error (nil when the last Read
// fused successfully).
func (rs *Reliable) LastErr() error { return rs.lastErr }

// ReliableState is a checkpoint of the fused sensor's mutable state (for
// record/replay checkpoints); storage is reused across Save calls.
type ReliableState struct {
	filter   TemporalFilter
	lastErr  error
	suspects []string
}

// SaveState checkpoints the sensor into st (pass nil to allocate) and
// returns it. The inputs' own state is checkpointed separately via their
// FaultManagement units.
func (rs *Reliable) SaveState(st *ReliableState) *ReliableState {
	if st == nil {
		st = &ReliableState{}
	}
	st.filter = *rs.filter
	st.lastErr = rs.lastErr
	st.suspects = append(st.suspects[:0], rs.suspects...)
	return st
}

// RestoreState rewinds the sensor to a SaveState checkpoint.
func (rs *Reliable) RestoreState(st *ReliableState) {
	*rs.filter = st.filter
	rs.lastErr = st.lastErr
	rs.suspects = append(rs.suspects[:0], st.suspects...)
}

// LastSuspects returns the input names the most recent Read excluded or
// found disagreeing with the fused value.
func (rs *Reliable) LastSuspects() []string {
	return append([]string(nil), rs.suspects...)
}

// Suspected reports whether the named input was suspect on the last Read.
func (rs *Reliable) Suspected(name string) bool {
	for _, s := range rs.suspects {
		if s == name {
			return true
		}
	}
	return false
}

// Read samples every input, fuses them and returns the reliable reading.
// When Marzullo fusion finds no agreement interval the validity collapses
// to the best single input discounted by disagreement.
func (rs *Reliable) Read() Reading {
	now := rs.clock.Now()
	rs.suspects = rs.suspects[:0]
	readings := rs.readings[:0]
	intervals := rs.intervals[:0]
	for _, in := range rs.inputs {
		r := in.Read()
		if r.Validity >= rs.minVal && r.Validity > 0 {
			readings = append(readings, r)
			intervals = append(intervals, ToInterval(r, rs.half))
		} else {
			rs.suspects = append(rs.suspects, in.Name())
		}
	}
	rs.readings = readings
	rs.intervals = intervals
	if len(readings) == 0 {
		rs.lastErr = ErrNoData
		return Reading{Time: now, Validity: 0, Source: "reliable"}
	}
	iv, edges, err := marzulloScratch(intervals, rs.faulty, rs.edges)
	rs.edges = edges
	if err != nil {
		// No agreement: fall back to median, heavily discounted.
		med, merr := MedianFusion(now, readings, rs.minVal)
		rs.lastErr = err
		if merr != nil {
			return Reading{Time: now, Validity: 0, Source: "reliable"}
		}
		med.Validity = Clamp(med.Validity * 0.25)
		med.Source = "reliable"
		return rs.filter.Update(med)
	}
	rs.lastErr = nil
	// Flag inputs whose asserted interval does not intersect the fused
	// agreement: they are lying plausibly (e.g. permanent offset) and
	// only redundancy can expose them.
	for i, r := range readings {
		in := intervals[i]
		if in.Hi < iv.Lo || in.Lo > iv.Hi {
			rs.suspects = append(rs.suspects, r.Source)
		}
	}
	// Validity: mean input validity scaled by agreement tightness.
	var sumVal float64
	for _, r := range readings {
		sumVal += r.Validity
	}
	meanVal := sumVal / float64(len(readings))
	// Agreement quality: fully overlapping intervals intersect in nearly
	// their full width (2*half); a sliver of an intersection means the
	// inputs barely agree.
	tightness := 1.0
	if rs.half > 0 {
		tightness = Clamp(iv.Width() / (2 * rs.half))
		if tightness < 0.1 {
			tightness = 0.1
		}
	}
	out := Reading{
		Value:    iv.Mid(),
		Time:     now,
		Validity: Clamp(meanVal * tightness),
		Source:   "reliable",
	}
	return rs.filter.Update(out)
}
