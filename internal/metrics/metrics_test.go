package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should answer zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Median() != 3 {
		t.Fatalf("Median = %v", h.Median())
	}
}

func TestHistogramPercentileInterpolation(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(10)
	if got := h.Percentile(50); got != 5 {
		t.Fatalf("p50 of {0,10} = %v, want 5", got)
	}
	if got := h.Percentile(0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Percentile(-5); got != 0 {
		t.Fatalf("p<0 should clamp: %v", got)
	}
	if got := h.Percentile(150); got != 10 {
		t.Fatalf("p>100 should clamp: %v", got)
	}
}

func TestHistogramObserveAfterQuery(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Median()
	h.Observe(0) // must re-sort
	if got := h.Min(); got != 0 {
		t.Fatalf("Min after late observe = %v, want 0", got)
	}
}

func TestHistogramStdDev(t *testing.T) {
	var h Histogram
	h.Observe(2)
	if h.StdDev() != 0 {
		t.Fatal("single sample stddev should be 0")
	}
	h.Observe(4)
	h.Observe(4)
	h.Observe(4)
	h.Observe(5)
	h.Observe(5)
	h.Observe(7)
	h.Observe(9)
	// classic example: population stddev of {2,4,4,4,5,5,7,9} is 2
	if got := h.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

// Property: percentile is monotone in p and bounded by [Min, Max].
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			q := h.Percentile(p)
			if q < prev || q < h.Min() || q > h.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	if got := r.Value(); got != 0.75 {
		t.Fatalf("Value = %v, want 0.75", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("a-very-long-name", "22")
	tab.AddRow("short") // padded
	tab.AddNote("seed=%d", 42)
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "====") {
		t.Fatalf("missing title/underline:\n%s", out)
	}
	if !strings.Contains(out, "a-very-long-name  22") {
		t.Fatalf("misaligned row:\n%s", out)
	}
	if !strings.Contains(out, "note: seed=42") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + underline + header + sep + 3 rows + note
	if len(lines) != 8 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x,y", `q"z`)
	csv := tab.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableRowTruncation(t *testing.T) {
	tab := NewTable("", "only")
	tab.AddRow("a", "b", "c")
	if len(tab.Rows[0]) != 1 || tab.Rows[0][0] != "a" {
		t.Fatalf("long row not truncated: %v", tab.Rows[0])
	}
}

func TestFormatHelpers(t *testing.T) {
	if FmtF(1.234) != "1.23" {
		t.Fatal(FmtF(1.234))
	}
	if FmtF3(1.2345) != "1.234" && FmtF3(1.2345) != "1.235" {
		t.Fatal(FmtF3(1.2345))
	}
	if FmtPct(0.5) != "50.0%" {
		t.Fatal(FmtPct(0.5))
	}
	if FmtMs(1.5) != "1.50ms" {
		t.Fatal(FmtMs(1.5))
	}
	if FmtInt(7) != "7" {
		t.Fatal(FmtInt(7))
	}
}
