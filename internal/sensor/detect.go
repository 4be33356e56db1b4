package sensor

import (
	"math"

	"karyon/internal/sim"
)

// Verdict is one detector's judgment of a reading. MOSAIC (Fig. 3)
// distinguishes dominant detectors — which render a result invalid outright
// — from detectors producing a continuous validity estimate.
type Verdict struct {
	// Validity is the detector's confidence in the reading, in [0,1].
	Validity float64
	// Dominant marks a hard failure: the fault-management unit forces the
	// overall validity to zero when a dominant detector fails (validity 0).
	Dominant bool
}

// Detector inspects a reading in the context of recent history.
type Detector interface {
	// Name identifies the detector in diagnostics.
	Name() string
	// Check judges the reading observed at virtual instant now.
	Check(now sim.Time, r Reading, hist *History) Verdict
}

// History is a bounded window of recent readings available to detectors.
// It is a ring: once full, a push overwrites the oldest reading in place
// instead of shifting the window. The buffer grows by append up to the
// window size, so a history that never fills never allocates it all.
type History struct {
	buf  []Reading
	size int
	// head is the index of the oldest reading once buf is full, 0 before.
	head int
}

// NewHistory creates a window keeping the last size readings (minimum 1).
func NewHistory(size int) *History {
	if size < 1 {
		size = 1
	}
	return &History{size: size}
}

// Push appends a reading, evicting the oldest beyond the window size.
func (h *History) Push(r Reading) {
	if len(h.buf) < h.size {
		h.buf = append(h.buf, r)
		return
	}
	h.buf[h.head] = r
	if h.head++; h.head == len(h.buf) {
		h.head = 0
	}
}

// Len returns the number of retained readings.
func (h *History) Len() int { return len(h.buf) }

// At returns the i-th most recent reading (0 = newest).
func (h *History) At(i int) (Reading, bool) {
	n := len(h.buf)
	if i < 0 || i >= n {
		return Reading{}, false
	}
	k := h.head + n - 1 - i
	if k >= n {
		k -= n
	}
	return h.buf[k], true
}

// oldestFirst returns the retained readings, oldest first, as two runs.
func (h *History) oldestFirst() (older, newer []Reading) {
	return h.buf[h.head:], h.buf[:h.head]
}

// Values returns the retained values, oldest first.
func (h *History) Values() []float64 {
	out := make([]float64, 0, len(h.buf))
	older, newer := h.oldestFirst()
	for _, r := range older {
		out = append(out, r.Value)
	}
	for _, r := range newer {
		out = append(out, r.Value)
	}
	return out
}

// RangeDetector is a dominant detector rejecting readings outside the
// physically plausible interval [Min, Max].
type RangeDetector struct {
	Min float64
	Max float64
}

// Name implements Detector.
func (d RangeDetector) Name() string { return "range" }

// Check implements Detector.
func (d RangeDetector) Check(_ sim.Time, r Reading, _ *History) Verdict {
	if r.Value < d.Min || r.Value > d.Max {
		return Verdict{Validity: 0, Dominant: true}
	}
	return Verdict{Validity: 1, Dominant: true}
}

// FreshnessDetector is a dominant detector rejecting readings whose claimed
// acquisition timestamp lags the current instant by more than MaxAge —
// catching delay faults and omissions (the MOSAIC input layer "monitors the
// delays or omissions of the transducer output").
type FreshnessDetector struct {
	MaxAge sim.Time
}

// Name implements Detector.
func (d FreshnessDetector) Name() string { return "freshness" }

// Check implements Detector.
func (d FreshnessDetector) Check(now sim.Time, r Reading, _ *History) Verdict {
	if r.Age(now) > d.MaxAge {
		return Verdict{Validity: 0, Dominant: true}
	}
	return Verdict{Validity: 1, Dominant: true}
}

// RateDetector is a continuous detector: it degrades validity when the
// value changes faster than MaxRate (units per second). Sporadic offsets
// appear as rate spikes.
type RateDetector struct {
	MaxRate float64
}

// Name implements Detector.
func (d RateDetector) Name() string { return "rate" }

// Check implements Detector.
func (d RateDetector) Check(_ sim.Time, r Reading, hist *History) Verdict {
	prev, ok := hist.At(0)
	if !ok || r.Time <= prev.Time {
		return Verdict{Validity: 1}
	}
	dt := (r.Time - prev.Time).Seconds()
	rate := math.Abs(r.Value-prev.Value) / dt
	if rate <= d.MaxRate {
		return Verdict{Validity: 1}
	}
	// Validity decays inversely with the rate excess.
	return Verdict{Validity: Clamp(d.MaxRate / rate)}
}

// StuckDetector is a dominant detector flagging a transducer whose output
// has been bit-identical for MinRepeats consecutive samples — a real
// continuous-valued sensor with nominal noise essentially never repeats
// exactly.
type StuckDetector struct {
	MinRepeats int
}

// Name implements Detector.
func (d StuckDetector) Name() string { return "stuck" }

// Check implements Detector.
func (d StuckDetector) Check(_ sim.Time, r Reading, hist *History) Verdict {
	need := d.MinRepeats
	if need < 2 {
		need = 2
	}
	repeats := 1
	for i := 0; i < hist.Len(); i++ {
		prev, _ := hist.At(i)
		if prev.Value != r.Value {
			break
		}
		repeats++
	}
	if repeats >= need {
		return Verdict{Validity: 0, Dominant: true}
	}
	return Verdict{Validity: 1, Dominant: true}
}

// NoiseDetector is a continuous detector comparing the short-term standard
// deviation of the signal against the sensor's nominal sigma; stochastic
// offset faults inflate it. Window readings are detrended against a linear
// fit so genuine signal motion is not misread as noise.
type NoiseDetector struct {
	// Sigma is the nominal measurement noise.
	Sigma float64
	// Tolerance scales how much excess noise is accepted before validity
	// starts to degrade (e.g. 3 means up to 3x nominal is fine).
	Tolerance float64
	// MinWindow is the minimum number of samples before judging.
	MinWindow int
}

// Name implements Detector.
func (d NoiseDetector) Name() string { return "noise" }

// Check implements Detector.
func (d NoiseDetector) Check(_ sim.Time, r Reading, hist *History) Verdict {
	minW := d.MinWindow
	if minW < 4 {
		minW = 4
	}
	if hist.Len()+1 < minW {
		return Verdict{Validity: 1}
	}
	sd := detrendedStdDevHist(hist, r.Value)
	limit := d.Sigma * d.Tolerance
	if limit <= 0 || sd <= limit {
		return Verdict{Validity: 1}
	}
	return Verdict{Validity: Clamp(limit / sd)}
}

// detrendedStdDevHist fits a least-squares line to the history window's
// values followed by one extra value (indexed by position) and returns
// the residual standard deviation. It reads the window in place, without
// materializing the slice — this runs once per transducer sample on the
// car control hot path, and the slice append it replaces was the single
// largest allocation site in the whole simulation.
func detrendedStdDevHist(hist *History, last float64) float64 {
	fit := detrendFit{}
	older, newer := hist.oldestFirst()
	for i := range older {
		fit.add(older[i].Value)
	}
	for i := range newer {
		fit.add(newer[i].Value)
	}
	fit.add(last)
	fit.solve()
	for i := range older {
		fit.residual(older[i].Value)
	}
	for i := range newer {
		fit.residual(newer[i].Value)
	}
	fit.residual(last)
	return fit.stddev()
}

// detrendFit accumulates a least-squares line fit in one pass and residual
// energy in a second, with the same operation order for every caller so
// results stay bit-identical however the values are stored. The
// positions are 0..n-1, so their sums Σx and Σx² are integers, which a
// float64 holds exactly up to 2⁵³: summing them one term at a time or
// taking the closed forms gives the same bits, and solve takes the closed
// forms.
type detrendFit struct {
	i                int
	sy, sxy          float64
	slope, intercept float64
	j                int
	ss               float64
}

func (f *detrendFit) add(v float64) {
	x := float64(f.i)
	f.i++
	f.sy += v
	f.sxy += x * v
}

func (f *detrendFit) solve() {
	m := int64(f.i)
	n := float64(m)
	sx := float64(m * (m - 1) / 2)
	sxx := float64((m - 1) * m * (2*m - 1) / 6)
	denom := n*sxx - sx*sx
	if denom != 0 {
		f.slope = (n*f.sxy - sx*f.sy) / denom
		f.intercept = (f.sy - f.slope*sx) / n
	} else {
		f.intercept = f.sy / n
	}
}

func (f *detrendFit) residual(v float64) {
	resid := v - (f.slope*float64(f.j) + f.intercept)
	f.j++
	f.ss += resid * resid
}

func (f *detrendFit) stddev() float64 {
	return math.Sqrt(f.ss / float64(f.i))
}

// ModelDetector is a continuous detector implementing analytical redundancy
// (paper Sec. IV-B): it compares the reading against a prediction from a
// process model and degrades validity with the normalized residual.
type ModelDetector struct {
	// Predict returns the model's expected value at t.
	Predict func(t sim.Time) float64
	// Tolerance is the residual magnitude at which validity reaches ~0.5.
	Tolerance float64
}

// Name implements Detector.
func (d ModelDetector) Name() string { return "model" }

// Check implements Detector.
func (d ModelDetector) Check(_ sim.Time, r Reading, _ *History) Verdict {
	if d.Predict == nil || d.Tolerance <= 0 {
		return Verdict{Validity: 1}
	}
	resid := math.Abs(r.Value - d.Predict(r.Time))
	// Smooth falloff: validity = 1 / (1 + (resid/tol)^2).
	x := resid / d.Tolerance
	return Verdict{Validity: Clamp(1 / (1 + x*x))}
}

// FaultManagement is the MOSAIC crosscutting unit (Fig. 3): it runs every
// registered detector and combines their verdicts into the reading's data
// validity. Any failing dominant detector forces validity to zero; the
// continuous estimates multiply (independent evidence).
type FaultManagement struct {
	detectors []Detector
	hist      History
	// lastVerdicts keeps the most recent per-detector outcomes for
	// diagnostics and tests, indexed like detectors — a slice rather than a
	// name-keyed map because Assess runs once per transducer sample on the
	// control hot path, where per-call map writes dominate.
	lastVerdicts []Verdict
	assessed     bool
}

// NewFaultManagement creates a unit with the given history window and
// detectors. The unit keeps the detectors slice as given, so units with
// the same detectors may share one.
func NewFaultManagement(window int, detectors ...Detector) *FaultManagement {
	// One allocation for the unit, with room for four verdicts inline.
	b := &struct {
		fm       FaultManagement
		verdicts [4]Verdict
	}{}
	verdicts := b.verdicts[:0]
	if len(detectors) > len(b.verdicts) {
		verdicts = make([]Verdict, 0, len(detectors))
	}
	b.fm = FaultManagement{
		detectors:    detectors,
		hist:         *NewHistory(window),
		lastVerdicts: verdicts[:len(detectors)],
	}
	return &b.fm
}

// Assess judges the reading, pushes it into the history and returns the
// reading annotated with the combined validity.
func (fm *FaultManagement) Assess(now sim.Time, r Reading) Reading {
	validity := 1.0
	for i, d := range fm.detectors {
		v := d.Check(now, r, &fm.hist)
		fm.lastVerdicts[i] = v
		if v.Dominant && v.Validity == 0 {
			validity = 0
		} else {
			validity *= Clamp(v.Validity)
		}
	}
	fm.assessed = true
	fm.hist.Push(r)
	r.Validity = Clamp(validity)
	return r
}

// Verdict returns the most recent verdict from the named detector.
func (fm *FaultManagement) Verdict(name string) (Verdict, bool) {
	if !fm.assessed {
		return Verdict{}, false
	}
	for i, d := range fm.detectors {
		if d.Name() == name {
			return fm.lastVerdicts[i], true
		}
	}
	return Verdict{}, false
}

// Abstract is the paper's abstract sensor (Fig. 2): a physical sensor plus
// its fault-management wrapper, exposing only validity-annotated readings.
type Abstract struct {
	phys  *Physical
	fm    *FaultManagement
	clock sim.Clock
}

// NewAbstract wraps a physical sensor with fault management. The clock is
// usually the kernel; sharded worlds pass the owning entity's clock.
func NewAbstract(clock sim.Clock, phys *Physical, fm *FaultManagement) *Abstract {
	return &Abstract{phys: phys, fm: fm, clock: clock}
}

// Name returns the underlying sensor name.
func (a *Abstract) Name() string { return a.phys.Name() }

// Physical exposes the wrapped transducer (for fault injection in tests
// and campaigns).
func (a *Abstract) Physical() *Physical { return a.phys }

// FaultManagement exposes the wrapped detection unit (for record/replay
// checkpoints: the abstract sensor itself is stateless, its state lives
// in the transducer and the detection unit).
func (a *Abstract) FaultManagement() *FaultManagement { return a.fm }

// Read samples the transducer and returns the validity-annotated reading.
func (a *Abstract) Read() Reading {
	return a.fm.Assess(a.clock.Now(), a.phys.Sample())
}
