package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestResultTableRendering(t *testing.T) {
	res := NewResult("demo")
	res.Record("case", "a").
		Val("lat", 1.234, Ms).
		Int("count", 7).
		Bool("ok", true)
	res.Record("case", "b").
		Val("lat", 2.5, Ms).
		Int("count", 0).
		Bool("ok", false).
		MissingVal("extra", F2)
	res.AddNote("a note")
	out := res.Table().String()
	for _, want := range []string{"demo", "case", "lat", "count", "ok",
		"1.23ms", "2.50ms", "yes", "no", "-", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatCells(t *testing.T) {
	cases := []struct {
		f    Format
		v    float64
		want string
	}{
		{F2, 1.005, "1.00"},
		{F3, 0.1234, "0.123"},
		{Pct, 0.5, "50.0%"},
		{Ms, 3.25, "3.25ms"},
		{Int, 41.6, "42"},
		{Bool, 1, "yes"},
		{Bool, 0, "no"},
	}
	for _, tc := range cases {
		if got := tc.f.Cell(tc.v); got != tc.want {
			t.Fatalf("%v.Cell(%v) = %q, want %q", tc.f, tc.v, got, tc.want)
		}
	}
}

// NaN and Inf must never reach the structured result (they would break
// JSON encoding); Val converts them to missing cells.
func TestNonFiniteValuesBecomeMissing(t *testing.T) {
	res := NewResult("naninf")
	res.Record("case", "x").
		Val("nan", nan(), F2).
		Val("inf", inf(), F2)
	for _, v := range res.Records[0].Values {
		if !v.Missing {
			t.Fatalf("%s not marked missing", v.Name)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-encodable: %v", err)
	}
}

func nan() float64 { return inf() - inf() }
func inf() float64 {
	x := 0.0
	return 1 / x
}

func TestAggregateAcrossReplicas(t *testing.T) {
	mk := func(lat float64, ok bool) *Result {
		res := NewResult("demo")
		res.Record("case", "a").Val("lat", lat, Ms).Bool("ok", ok)
		return res
	}
	s := Aggregate([]*Result{mk(1, true), mk(2, true), mk(3, false), mk(6, true)})
	if s.Replicas != 4 || len(s.Records) != 1 {
		t.Fatalf("summary = %+v", s)
	}
	lat := s.Records[0].Values[0]
	if lat.Name != "lat" || lat.Count != 4 {
		t.Fatalf("lat dist = %+v", lat)
	}
	if lat.Mean != 3 || lat.Min != 1 || lat.Max != 6 {
		t.Fatalf("lat stats = %+v", lat)
	}
	if lat.StdDev <= 1.8 || lat.StdDev >= 2 { // population stddev of {1,2,3,6} ≈ 1.87
		t.Fatalf("stddev = %v", lat.StdDev)
	}
	if lat.P95 <= 5 || lat.P95 > 6 {
		t.Fatalf("p95 = %v", lat.P95)
	}
	ok := s.Records[0].Values[1]
	if ok.Mean != 0.75 {
		t.Fatalf("bool mean = %v, want 0.75 yes-fraction", ok.Mean)
	}
	out := s.Table().String()
	if !strings.Contains(out, "±") || !strings.Contains(out, "75.0%") {
		t.Fatalf("aggregated rendering:\n%s", out)
	}
}

// Replicated summaries carry a 95% confidence half-width per measurement
// and render it as a dedicated column.
func TestAggregateConfidenceInterval(t *testing.T) {
	mk := func(lat float64) *Result {
		res := NewResult("demo")
		res.Record("case", "a").Val("lat", lat, F2)
		return res
	}
	s := Aggregate([]*Result{mk(1), mk(2), mk(3), mk(6)})
	lat := s.Records[0].Values[0]
	// n = 4: Student-t at 3 degrees of freedom over the sample stddev.
	sample := lat.StdDev * math.Sqrt(4.0/3.0)
	want := 3.182 * sample / 2
	if diff := lat.CI95 - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", lat.CI95, want)
	}
	out := s.Table().String()
	if !strings.Contains(out, "lat ci95") {
		t.Fatalf("rendered table missing ci95 column:\n%s", out)
	}
	// A single replica renders without dispersion or CI columns.
	single := Aggregate([]*Result{mk(5)})
	if sout := single.Table().String(); strings.Contains(sout, "ci95") {
		t.Fatalf("single replica grew a ci95 column:\n%s", sout)
	}
	if single.Records[0].Values[0].CI95 != 0 {
		t.Fatalf("single-replica ci95 = %v", single.Records[0].Values[0].CI95)
	}
	// A value observed in only one replica of a replicated run has no
	// defined interval: the cell must be a gap, not "±0.00".
	lone := NewResult("demo")
	lone.Record("case", "a").Val("lat", 1, F2).Val("rare", 7, F2)
	other := NewResult("demo")
	other.Record("case", "a").Val("lat", 2, F2).MissingVal("rare", F2)
	sparse := Aggregate([]*Result{lone, other})
	if sparse.Records[0].Values[1].CI95 != 0 {
		t.Fatalf("one-sample ci95 = %v", sparse.Records[0].Values[1].CI95)
	}
	sout := sparse.Table().CSV()
	row := strings.Split(strings.TrimSpace(sout), "\n")[1]
	if !strings.HasSuffix(row, ",-") {
		t.Fatalf("one-sample ci95 cell not a gap:\n%s", sout)
	}
}

// Missing values contribute no sample; a value missing everywhere renders
// as a gap but keeps its column.
func TestAggregateMissingValues(t *testing.T) {
	with := NewResult("demo")
	with.Record("case", "a").Val("conv", 10, Int).MissingVal("gone", F2)
	without := NewResult("demo")
	without.Record("case", "a").MissingVal("conv", Int).MissingVal("gone", F2)
	s := Aggregate([]*Result{with, without})
	conv := s.Records[0].Values[0]
	if conv.Count != 1 || conv.Mean != 10 {
		t.Fatalf("conv dist = %+v", conv)
	}
	gone := s.Records[0].Values[1]
	if gone.Count != 0 {
		t.Fatalf("gone dist = %+v", gone)
	}
	if cell := gone.Cell(s.Replicas); cell != "-" {
		t.Fatalf("empty dist cell = %q", cell)
	}
}

// Every replica count gets the exact statistics of a Histogram over the
// observed values, bit for bit: a 65-replica summary uses the same
// arithmetic as a 64-replica one. "sometimes" is missing in every third
// replica, so its Count and statistics cover only the observed values.
func TestAggregateMatchesHistogram(t *testing.T) {
	for _, n := range []int{1, 2, 64, 65, 300, 6000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			want := map[string]*Histogram{"always": {}, "sometimes": {}}
			results := make([]*Result, 0, n)
			for i := 0; i < n; i++ {
				r := NewResult("exact")
				rec := r.Record("variant", "a")
				v := rng.NormFloat64()*3 + 24.6
				rec.Val("always", v, F2)
				want["always"].Observe(v)
				if i%3 == 0 {
					rec.MissingVal("sometimes", F2)
				} else {
					w := rng.ExpFloat64() * 7.1
					rec.Val("sometimes", w, F2)
					want["sometimes"].Observe(w)
				}
				results = append(results, r)
			}
			s := Aggregate(results)
			if len(s.Records) != 1 || len(s.Records[0].Values) != 2 {
				t.Fatalf("unexpected shape: %+v", s)
			}
			for _, d := range s.Records[0].Values {
				h := want[d.Name]
				got := [...]float64{float64(d.Count), d.Mean, d.StdDev, d.Min, d.Max, d.P95}
				exp := [...]float64{float64(h.Count()), h.Mean(), h.StdDev(), h.Min(), h.Max(), h.Percentile(95)}
				if got != exp {
					t.Fatalf("%s: count/mean/stddev/min/max/p95 = %v, want %v", d.Name, got, exp)
				}
				// exp[2], not h.StdDev() again: the percentile queries have
				// since sorted h, which changes the order StdDev sums in.
				var ci float64
				if k := h.Count(); k >= 2 {
					sample := exp[2] * math.Sqrt(float64(k)/float64(k-1))
					ci = tCrit95(k-1) * sample / math.Sqrt(float64(k))
				}
				if d.CI95 != ci {
					t.Fatalf("%s: ci95 = %v, want %v", d.Name, d.CI95, ci)
				}
			}
		})
	}
}

// A large replica matrix (four times the 64 replicas a sweep usually
// runs) keeps exact moments, min/max, the exact p95 order statistic and a
// confidence interval.
func TestAggregateStreamingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4 * 64
	results := make([]*Result, 0, n)
	var exact Histogram
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()*2 + 10
		exact.Observe(v)
		r := NewResult("streamed")
		r.Record("variant", "a").Val("latency", v, F2)
		results = append(results, r)
	}
	s := Aggregate(results)
	if len(s.Records) != 1 || len(s.Records[0].Values) != 1 {
		t.Fatalf("unexpected shape: %+v", s)
	}
	d := s.Records[0].Values[0]
	if d.Count != n {
		t.Fatalf("count %d, want %d", d.Count, n)
	}
	if math.Abs(d.Mean-exact.Mean()) > 1e-9 || math.Abs(d.StdDev-exact.StdDev()) > 1e-9 {
		t.Fatalf("moments diverge: mean %v/%v stddev %v/%v",
			d.Mean, exact.Mean(), d.StdDev, exact.StdDev())
	}
	if d.Min != exact.Min() || d.Max != exact.Max() {
		t.Fatalf("min/max diverge")
	}
	if d.P95 != exact.Percentile(95) {
		t.Fatalf("p95 %v, want exact %v", d.P95, exact.Percentile(95))
	}
	if d.CI95 <= 0 {
		t.Fatal("ci95 missing on large aggregate")
	}
}

// A measurement that most replicas of a large matrix never record (the
// value is absent, not marked missing) keeps Count at the observed number
// and aggregates only the observed samples.
func TestAggregateStreamingMissingValues(t *testing.T) {
	n := 2 * 64
	results := make([]*Result, 0, n)
	var exact Histogram
	for i := 0; i < n; i++ {
		r := NewResult("streamed")
		rec := r.Record("variant", "a").Val("always", float64(i), F2)
		if i%3 == 0 {
			rec.Val("sometimes", float64(i)*2, F2)
			exact.Observe(float64(i) * 2)
		}
		results = append(results, r)
	}
	s := Aggregate(results)
	if len(s.Records) != 1 {
		t.Fatalf("unexpected shape: %+v", s)
	}
	var some *Dist
	for i := range s.Records[0].Values {
		if s.Records[0].Values[i].Name == "sometimes" {
			some = &s.Records[0].Values[i]
		}
	}
	if some == nil {
		t.Fatal("sparse measurement missing from summary")
	}
	if some.Count != exact.Count() {
		t.Fatalf("sparse count %d, want %d", some.Count, exact.Count())
	}
	if math.Abs(some.Mean-exact.Mean()) > 1e-9 || some.Min != exact.Min() || some.Max != exact.Max() {
		t.Fatalf("sparse stats diverge: %+v vs mean %v min %v max %v",
			some, exact.Mean(), exact.Min(), exact.Max())
	}
}

// Records are matched by label tuple: replicas may emit rows in any
// subset, and first-seen order wins.
func TestAggregateMatchesByLabels(t *testing.T) {
	r1 := NewResult("demo")
	r1.Record("case", "a").Val("v", 1, F2)
	r1.Record("case", "b").Val("v", 10, F2)
	r2 := NewResult("demo")
	r2.Record("case", "b").Val("v", 20, F2)
	s := Aggregate([]*Result{r1, r2})
	if len(s.Records) != 2 {
		t.Fatalf("records = %d", len(s.Records))
	}
	if s.Records[0].Labels[0].Value != "a" || s.Records[0].Values[0].Count != 1 {
		t.Fatalf("record a = %+v", s.Records[0])
	}
	if s.Records[1].Labels[0].Value != "b" || s.Records[1].Values[0].Count != 2 ||
		s.Records[1].Values[0].Mean != 15 {
		t.Fatalf("record b = %+v", s.Records[1])
	}
}

// Single-replica summaries must render exactly like the unaggregated
// result, so `-replicas 1` output matches a plain run.
func TestSingleReplicaRendersLikeResult(t *testing.T) {
	res := NewResult("demo")
	res.Record("case", "a").Val("lat", 1.5, Ms).Int("n", 3).Bool("ok", true)
	res.AddNote("hello")
	plain := res.Table().String()
	agg := Aggregate([]*Result{res}).Table().String()
	if plain != agg {
		t.Fatalf("single-replica summary diverges:\nplain:\n%s\nagg:\n%s", plain, agg)
	}
}

// Regression: Aggregate must keep merging into a record even after later
// appends grow s.Records (a stale-pointer bug would silently drop values
// that first appear in a late replica).
func TestAggregateSurvivesRecordGrowth(t *testing.T) {
	r1 := NewResult("demo")
	r1.Record("case", "a").Val("v1", 1, F2)
	r2 := NewResult("demo")
	for i := 0; i < 64; i++ { // force s.Records reallocation
		r2.Record("case", string(rune('b'+i))).Val("v1", 0, F2)
	}
	r2.Record("case", "a").Val("v1", 3, F2).Val("late", 9, F2)
	s := Aggregate([]*Result{r1, r2})
	a := s.Records[0]
	if a.Labels[0].Value != "a" {
		t.Fatalf("first record = %+v", a)
	}
	if len(a.Values) != 2 {
		t.Fatalf("record a has %d values, want v1 and late: %+v", len(a.Values), a.Values)
	}
	if a.Values[0].Count != 2 || a.Values[0].Mean != 2 {
		t.Fatalf("v1 dist = %+v", a.Values[0])
	}
	if a.Values[1].Name != "late" || a.Values[1].Count != 1 || a.Values[1].Mean != 9 {
		t.Fatalf("late dist = %+v", a.Values[1])
	}
}

// Dispersion cells contain the multi-byte ± rune; alignment must use
// display width, not byte length.
func TestTableAlignmentWithMultibyteCells(t *testing.T) {
	tab := NewTable("t", "col", "widecolumn")
	tab.AddRow("1.0 ±0.5", "x")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	header, sep, data := lines[2], lines[3], lines[4]
	// The first column is 8 display runes wide ("1.0 ±0.5"), so every row
	// must start its second column at display offset 10.
	if !strings.HasPrefix(sep, "--------  -") {
		t.Fatalf("separator sized by bytes, not runes:\n%s", out)
	}
	if !strings.HasPrefix(data, "1.0 ±0.5  x") {
		t.Fatalf("data row misaligned:\n%s", out)
	}
	if got := []rune(header); string(got[8:10]) != "  " || got[10] != 'w' {
		t.Fatalf("header misaligned:\n%s", out)
	}
}
