package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, segments int
		p50, tail   float64
	}{
		// Descending 1..n: stretch i holds the values ranked from the top;
		// the median stretch is the third, (40, 60] at n = 100.
		{n: 100, segments: 5, p50: 50.5, tail: 58},
		{n: 1000, segments: 5, p50: 500.5, tail: 580},
		{n: 50, segments: 5, p50: 25.5, tail: 29},
		{n: 49, segments: 1, p50: 25, tail: 45},
		{n: 10, segments: 1, p50: 5.5, tail: 9},
		{n: 9, segments: 0, p50: 5, tail: 0},
		{n: 1, segments: 0, p50: 1, tail: 0},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.P50 != tc.p50 || d.Tail != tc.tail || d.Segments != tc.segments {
			t.Errorf("n=%d: got %+v, want p50 %v, tail %v over %d stretches", tc.n, d, tc.p50, tc.tail, tc.segments)
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty series: got %+v", d)
	}
}

func TestTailIgnoresOneBurst(t *testing.T) {
	// 100 steady samples with a burst of slow ones inside one stretch:
	// the tail is that of the steady samples.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i%10 + 1)
	}
	steady := summarize(xs).Tail
	for i := 20; i < 40; i++ {
		xs[i] = 1000
	}
	if got := summarize(xs).Tail; got != steady || steady != 9 {
		t.Errorf("tail with a burst in one stretch = %v, steady tail = %v, want both 9", got, steady)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "window", Start: 0, End: 100, Parent: -1},
		{Name: "shard.0", Start: 10, End: 40, Parent: 0},
		{Name: "shard.1", Start: 30, End: 60, Parent: 0}, // overlaps shard.0
		{Name: "late", Start: 90, End: 120, Parent: 0},   // clipped to the window
		{Name: "write", Start: 15, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPhaseDerivations(t *testing.T) {
	// Two windows on two shards: (3, 1) then barrier 2; (2, 2) then 1.
	p := phaseTotals{Windows: 2, Shards: 2, ShardMax: 3 + 2, ShardSum: 4 + 4, Barrier: 2 + 1}
	if got, want := p.serialFraction(), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("serial fraction %v, want %v", got, want)
	}
	if got, want := p.imbalance(), 5/(8.0/2)-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("imbalance %v, want %v", got, want)
	}
	if got := (phaseTotals{Shards: 2}).imbalance(); got != 0 {
		t.Errorf("idle imbalance %v, want 0", got)
	}

	// A run span of 100 ns whose windows cover 90: 10% unaccounted.
	tr := &windowTracer{
		runs: []int{0},
		spans: []span{
			{Name: "sim.run", Start: 0, End: 100, Parent: -1},
			{Name: "sim.window", Start: 5, End: 50, Parent: 0},
			{Name: "sim.window", Start: 50, End: 95, Parent: 0},
		},
	}
	if got := tr.unaccounted(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unaccounted %v, want 0.1", got)
	}
}

func TestReplaySeqRanges(t *testing.T) {
	next := replaySeq(42)
	for i := 0; i < 300; i++ {
		r := next()
		if r.shape != i%nShapes {
			t.Fatalf("request %d has shape %d", i, r.shape)
		}
		ck := (r.opt.From - 1) / checkpointEvery * checkpointEvery
		span := [nShapes]uint64{1, 3, longReplay}[r.shape]
		if ck == 0 || r.opt.To != ck+span || r.opt.From > r.opt.To || r.opt.To > recordWindows {
			t.Fatalf("request %d: range %d:%d after checkpoint %d", i, r.opt.From, r.opt.To, ck)
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric tables and workloads in step
// with BENCHMARK.json, which the benchmark's runs are judged against.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, have)
		}
	}
}
