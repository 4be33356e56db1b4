package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: karyon
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAblationKernelEventThroughput-8   	54604502	        21.49 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationKernelEventThroughput-8   	50000000	        23.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedHighwayThroughput/shards=1 	       3	 374469094 ns/op	   1281815 events/s	52942604 B/op	  390131 allocs/op
BenchmarkShardedHighwayThroughput/shards=4 	       3	 289477995 ns/op	   1658157 events/s	51830412 B/op	  390163 allocs/op
BenchmarkShardedHighwayThroughput/shards=4 	       3	 291034102 ns/op	   1649211 events/s	51830001 B/op	  390150 allocs/op
PASS
ok  	karyon	5.798s
`

func TestParseKeepsFastestRun(t *testing.T) {
	snap, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	kernel := snap.Benchmarks["BenchmarkAblationKernelEventThroughput"]
	if kernel.NsPerOp != 21.49 || kernel.Runs != 2 {
		t.Fatalf("kernel entry = %+v, want fastest of two runs", kernel)
	}
	if kernel.MemRuns != 2 || kernel.AllocsPerOp != 0 || kernel.BytesPerOp != 0 {
		t.Fatalf("kernel memory columns = %+v, want zero-alloc with 2 mem runs", kernel)
	}
	sharded := snap.Benchmarks["BenchmarkShardedHighwayThroughput/shards=4"]
	if sharded.NsPerOp != 289477995 {
		t.Fatalf("sharded entry = %+v", sharded)
	}
	// Memory columns parse past custom metrics (events/s), each scored by
	// its own minimum across runs.
	if sharded.MemRuns != 2 || sharded.AllocsPerOp != 390150 || sharded.BytesPerOp != 51830001 {
		t.Fatalf("sharded memory columns = %+v", sharded)
	}
	// A line without -benchmem columns leaves the mem fields unset.
	if one := snap.Benchmarks["BenchmarkShardedHighwayThroughput/shards=1"]; one.MemRuns != 1 {
		t.Fatalf("shards=1 entry = %+v", one)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benches here\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCompareGate(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Entry{
		"A": {NsPerOp: 100}, "B": {NsPerOp: 1000},
	}}
	// Within tolerance (+10%) and improved: passes.
	cur := &Snapshot{Benchmarks: map[string]Entry{
		"A": {NsPerOp: 110}, "B": {NsPerOp: 900},
	}}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("within-tolerance run failed: %v", lines)
	}
	// Beyond tolerance: fails and names the offender.
	cur.Benchmarks["B"] = Entry{NsPerOp: 1300}
	lines, ok := compare(base, cur, 0.20, 0.10)
	if ok {
		t.Fatalf("+30%% regression passed: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "FAIL B") {
		t.Fatalf("offender not named:\n%s", joined)
	}
	// A baseline benchmark missing from the current run must fail too.
	delete(cur.Benchmarks, "A")
	if _, ok := compare(base, cur, 10, 10); ok {
		t.Fatal("missing benchmark passed the gate")
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Entry{
		"A": {NsPerOp: 100, AllocsPerOp: 1000, MemRuns: 2},
		"Z": {NsPerOp: 100, MemRuns: 2}, // zero-alloc baseline
	}}
	// Fast but allocation-heavy: the time gate alone would pass, the
	// allocation gate must not.
	cur := &Snapshot{Benchmarks: map[string]Entry{
		"A": {NsPerOp: 90, AllocsPerOp: 1500, MemRuns: 2},
		"Z": {NsPerOp: 90, MemRuns: 2},
	}}
	lines, ok := compare(base, cur, 0.20, 0.10)
	if ok {
		t.Fatalf("+50%% allocs regression passed: %v", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "allocs/op") {
		t.Fatalf("allocation verdict missing:\n%s", strings.Join(lines, "\n"))
	}
	// Within tolerance: passes.
	cur.Benchmarks["A"] = Entry{NsPerOp: 90, AllocsPerOp: 1050, MemRuns: 2}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("within-tolerance allocs failed: %v", lines)
	}
	// A zero-alloc benchmark must stay zero-alloc.
	cur.Benchmarks["Z"] = Entry{NsPerOp: 90, AllocsPerOp: 1, MemRuns: 2}
	if lines, ok := compare(base, cur, 0.20, 0.10); ok {
		t.Fatalf("zero-alloc regression passed: %v", lines)
	}
	// Without -benchmem data on one side the allocation gate is skipped.
	cur.Benchmarks["Z"] = Entry{NsPerOp: 90}
	cur.Benchmarks["A"] = Entry{NsPerOp: 90}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("mem-less run should skip the allocation gate: %v", lines)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_PR2.json")
	basePath := filepath.Join(dir, "BENCH_BASELINE.json")

	// First run with -update creates the baseline.
	var sb strings.Builder
	err := run([]string{"-out", outPath, "-baseline", basePath, "-update"},
		strings.NewReader(sample), &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{outPath, basePath} {
		js, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(js, &snap); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(snap.Benchmarks) != 3 {
			t.Fatalf("%s holds %d benchmarks", p, len(snap.Benchmarks))
		}
	}

	// Same numbers gate green.
	sb.Reset()
	if err := run([]string{"-out", outPath, "-baseline", basePath},
		strings.NewReader(sample), &sb); err != nil {
		t.Fatalf("identical run failed: %v\n%s", err, sb.String())
	}

	// A 10x regression gates red.
	slow := strings.ReplaceAll(sample, "21.49 ns/op", "214.9 ns/op")
	slow = strings.ReplaceAll(slow, "23.10 ns/op", "231.0 ns/op")
	sb.Reset()
	err = run([]string{"-out", outPath, "-baseline", basePath},
		strings.NewReader(slow), &sb)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regression not caught: %v\n%s", err, sb.String())
	}

	// Missing baseline is a distinct, actionable error.
	sb.Reset()
	err = run([]string{"-out", outPath, "-baseline", filepath.Join(dir, "nope.json")},
		strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing baseline error unhelpful: %v", err)
	}
}

func TestMergeBaseBogusRefErrors(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{"-out", filepath.Join(dir, "o.json"), "-merge-base", "no-such-ref-xyz"},
		strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "merge-base") {
		t.Fatalf("bogus merge-base ref not surfaced: %v", err)
	}
}

// The allocation gate's remaining edges: mem data missing on the baseline
// side skips the gate, a current-only benchmark is ignored (the gate
// iterates baseline names — new benchmarks have nothing to regress
// against), an exactly-at-tolerance allocs delta passes (the limit is
// strict), and B/op alone never gates (only ns/op and allocs/op do; bytes
// ride along for the artifact).
func TestCompareAllocsGateEdges(t *testing.T) {
	// Baseline without -benchmem, current with it: skip, pass.
	base := &Snapshot{Benchmarks: map[string]Entry{"A": {NsPerOp: 100}}}
	cur := &Snapshot{Benchmarks: map[string]Entry{"A": {NsPerOp: 100, AllocsPerOp: 99999, MemRuns: 3}}}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("mem-less baseline should skip the allocation gate: %v", lines)
	} else if strings.Contains(strings.Join(lines, "\n"), "allocs/op") {
		t.Fatalf("allocation verdict emitted without baseline mem data:\n%s", strings.Join(lines, "\n"))
	}
	// A benchmark present only in the current run is not gated.
	cur.Benchmarks["NEW"] = Entry{NsPerOp: 1, AllocsPerOp: 1, MemRuns: 1}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("current-only benchmark failed the gate: %v", lines)
	} else if strings.Contains(strings.Join(lines, "\n"), "NEW") {
		t.Fatalf("current-only benchmark appeared in the verdict:\n%s", strings.Join(lines, "\n"))
	}
	// Exactly at the allocs limit: strict inequality, passes; one past it
	// fails. (+25% of 1000 is exactly representable, so the boundary is
	// float-clean.)
	base = &Snapshot{Benchmarks: map[string]Entry{"A": {NsPerOp: 100, AllocsPerOp: 1000, MemRuns: 1}}}
	cur = &Snapshot{Benchmarks: map[string]Entry{"A": {NsPerOp: 100, AllocsPerOp: 1250, MemRuns: 1}}}
	if lines, ok := compare(base, cur, 0.20, 0.25); !ok {
		t.Fatalf("exactly-at-limit allocs failed: %v", lines)
	}
	cur.Benchmarks["A"] = Entry{NsPerOp: 100, AllocsPerOp: 1251, MemRuns: 1}
	if _, ok := compare(base, cur, 0.20, 0.25); ok {
		t.Fatal("past-limit allocs passed")
	}
	// B/op alone never fails the gate.
	base.Benchmarks["A"] = Entry{NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000, MemRuns: 1}
	cur.Benchmarks["A"] = Entry{NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 900000, MemRuns: 1}
	if lines, ok := compare(base, cur, 0.20, 0.10); !ok {
		t.Fatalf("B/op-only growth failed the gate (only ns and allocs gate): %v", lines)
	}
	// Zero-alloc staying zero passes and says so.
	base.Benchmarks["A"] = Entry{NsPerOp: 100, MemRuns: 1}
	cur.Benchmarks["A"] = Entry{NsPerOp: 100, MemRuns: 1}
	lines, ok := compare(base, cur, 0.20, 0.10)
	if !ok {
		t.Fatalf("zero-alloc steady state failed: %v", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "zero-alloc must stay zero") {
		t.Fatalf("zero-alloc verdict line missing:\n%s", strings.Join(lines, "\n"))
	}
}

// Parallel efficiency: every /shards=N (and deeper, e.g. /medium)
// variant with a shards=1 sibling scores ns(1)/(ns(N)·N); everything
// else — the shards=1 anchor itself, families without an anchor,
// non-sharded names — is left out of the map.
func TestEfficiency(t *testing.T) {
	snap := &Snapshot{Benchmarks: map[string]Entry{
		"BenchmarkMega/shards=1":        {NsPerOp: 800},
		"BenchmarkMega/shards=4":        {NsPerOp: 250}, // 800/(250·4) = 0.80
		"BenchmarkMega/shards=4/medium": {NsPerOp: 200}, // 800/(200·4) = 1.00
		"BenchmarkOrphan/shards=8":      {NsPerOp: 100}, // no shards=1 sibling
		"BenchmarkScalar":               {NsPerOp: 10},
	}}
	efficiency(snap)
	want := map[string]float64{
		"BenchmarkMega/shards=4":        0.80,
		"BenchmarkMega/shards=4/medium": 1.00,
	}
	if len(snap.Efficiency) != len(want) {
		t.Fatalf("efficiency map = %v, want %v", snap.Efficiency, want)
	}
	for name, eff := range want {
		got := snap.Efficiency[name]
		if got < eff-1e-9 || got > eff+1e-9 {
			t.Fatalf("efficiency[%s] = %v, want %v", name, got, eff)
		}
	}
}

// -results-dir archives the run as a timestamped JSON carrying host
// metadata and the efficiency map, alongside the regular snapshot; the
// info lines for tracked efficiency appear in the output.
func TestResultsDirArchive(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results")
	var sb strings.Builder
	err := run([]string{
		"-out", filepath.Join(dir, "o.json"),
		"-baseline", filepath.Join(dir, "b.json"),
		"-update", "-results-dir", results,
	}, strings.NewReader(sample), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "parallel efficiency") {
		t.Fatalf("efficiency info line missing:\n%s", sb.String())
	}
	files, err := filepath.Glob(filepath.Join(results, "bench-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("archived files = %v (%v), want exactly one", files, err)
	}
	js, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Timestamp  string             `json:"timestamp"`
		Host       Host               `json:"host"`
		Benchmarks map[string]Entry   `json:"benchmarks"`
		Efficiency map[string]float64 `json:"parallel_efficiency"`
	}
	if err := json.Unmarshal(js, &res); err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	if res.Timestamp == "" || res.Host.Cores < 1 || res.Host.GoMaxProcs < 1 || res.Host.GoVersion == "" {
		t.Fatalf("host metadata incomplete: %+v", res)
	}
	if len(res.Benchmarks) != 3 {
		t.Fatalf("archived %d benchmarks, want 3", len(res.Benchmarks))
	}
	// The sample's shards=4 variant scores against its shards=1 sibling.
	if _, ok := res.Efficiency["BenchmarkShardedHighwayThroughput/shards=4"]; !ok {
		t.Fatalf("efficiency missing from archive: %v", res.Efficiency)
	}
}

// Min-per-metric independence: the fastest ns/op run and the lowest
// allocs/op run can be different runs — each metric keeps its own
// minimum, and MemRuns counts only the runs that carried memory columns.
func TestParseMinPerMetricIndependence(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkX-4   10   200.0 ns/op   500 B/op   50 allocs/op",
		"BenchmarkX-4   10   100.0 ns/op   900 B/op   90 allocs/op", // fastest time, worst memory
		"BenchmarkX-4   10   300.0 ns/op",                           // no -benchmem columns on this run
	}, "\n")
	snap, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := snap.Benchmarks["BenchmarkX"]
	if e.NsPerOp != 100 || e.Runs != 3 {
		t.Fatalf("ns/op min wrong: %+v", e)
	}
	if e.AllocsPerOp != 50 || e.BytesPerOp != 500 {
		t.Fatalf("memory minima not independent of the time minimum: %+v", e)
	}
	if e.MemRuns != 2 {
		t.Fatalf("MemRuns = %d, want 2 (one run had no -benchmem)", e.MemRuns)
	}
}

// Custom b.ReportMetric columns are tracked as the mean across runs —
// ratios and percentiles have no "fastest run" — keyed by unit, with the
// standard ns/op, B/op, and allocs/op columns excluded.
func TestParseTracksCustomMetrics(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkServiceCacheLoad/clients=4-8   2   20543984 ns/op   0.8750 hit-ratio   5.918 p95-ms   35102656 B/op   16668 allocs/op",
		"BenchmarkServiceCacheLoad/clients=4-8   2   21000000 ns/op   0.9250 hit-ratio   8.082 p95-ms   35102656 B/op   16668 allocs/op",
		"BenchmarkPlain-8   10   100.0 ns/op",
	}, "\n")
	snap, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := snap.Benchmarks["BenchmarkServiceCacheLoad/clients=4"]
	if len(e.Metrics) != 2 {
		t.Fatalf("metrics = %v, want hit-ratio and p95-ms", e.Metrics)
	}
	if got := e.Metrics["hit-ratio"]; got < 0.89999 || got > 0.90001 {
		t.Fatalf("hit-ratio mean = %v, want 0.9", got)
	}
	if got := e.Metrics["p95-ms"]; got < 6.99999 || got > 7.00001 {
		t.Fatalf("p95-ms mean = %v, want 7.0", got)
	}
	// The standard columns must not leak into the metric map, and a
	// metric-less benchmark keeps a nil map (omitted from the JSON).
	for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
		if _, ok := e.Metrics[unit]; ok {
			t.Fatalf("standard column %s tracked as custom metric", unit)
		}
	}
	if snap.Benchmarks["BenchmarkPlain"].Metrics != nil {
		t.Fatalf("metric-less benchmark grew a metric map: %v", snap.Benchmarks["BenchmarkPlain"].Metrics)
	}
	// The sample's events/s column is tracked too.
	snap2, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap2.Benchmarks["BenchmarkShardedHighwayThroughput/shards=4"].Metrics["events/s"]; !ok {
		t.Fatalf("events/s not tracked: %+v", snap2.Benchmarks["BenchmarkShardedHighwayThroughput/shards=4"])
	}
}

// ratchetViolations flags exactly the zero→nonzero allocs transitions:
// entries missing from either side, entries without -benchmem data, and
// nonzero baselines are all out of scope (compare's percentage gate owns
// those).
func TestRatchetViolations(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Entry{
		"Zero":    {NsPerOp: 10, MemRuns: 2},                   // ratcheted at 0
		"StillOk": {NsPerOp: 10, MemRuns: 2},                   // stays 0
		"NonZero": {NsPerOp: 10, AllocsPerOp: 100, MemRuns: 2}, // never ratcheted
		"NoMem":   {NsPerOp: 10},                               // no -benchmem data
		"Gone":    {NsPerOp: 10, MemRuns: 2},                   // removed benchmark
	}}
	next := &Snapshot{Benchmarks: map[string]Entry{
		"Zero":    {NsPerOp: 10, AllocsPerOp: 7, MemRuns: 2},
		"StillOk": {NsPerOp: 10, MemRuns: 2},
		"NonZero": {NsPerOp: 10, AllocsPerOp: 9000, MemRuns: 2},
		"NoMem":   {NsPerOp: 10, AllocsPerOp: 5, MemRuns: 2},
		"New":     {NsPerOp: 10, AllocsPerOp: 5, MemRuns: 2},
	}}
	bad := ratchetViolations(old, next)
	if len(bad) != 1 || !strings.Contains(bad[0], "Zero") {
		t.Fatalf("violations = %v, want exactly the Zero entry", bad)
	}
}

// -update-baseline is the self-describing alias of -update, and both
// refuse to rewrite a baseline entry that sits at 0 allocs/op with an
// allocating run: the zero-alloc ratchet cannot be released by
// regenerating the baseline.
func TestUpdateBaselineRatchet(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "o.json")
	basePath := filepath.Join(dir, "b.json")
	zero := "BenchmarkHot-8   100   50.0 ns/op   0 B/op   0 allocs/op\n"
	leaky := "BenchmarkHot-8   100   50.0 ns/op   64 B/op   2 allocs/op\n"

	// -update-baseline creates the baseline just like -update.
	var sb strings.Builder
	if err := run([]string{"-out", outPath, "-baseline", basePath, "-update-baseline"},
		strings.NewReader(zero), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "baseline "+basePath+" rewritten") {
		t.Fatalf("-update-baseline did not rewrite the baseline:\n%s", sb.String())
	}

	// Refreshing with an allocating run must refuse, under either flag.
	for _, flag := range []string{"-update", "-update-baseline"} {
		sb.Reset()
		err := run([]string{"-out", outPath, "-baseline", basePath, flag},
			strings.NewReader(leaky), &sb)
		if err == nil || !strings.Contains(err.Error(), "ratchet") {
			t.Fatalf("%s laundered a zero-alloc regression into the baseline: %v", flag, err)
		}
	}
	// The refusal left the committed baseline untouched.
	js, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var base Snapshot
	if err := json.Unmarshal(js, &base); err != nil {
		t.Fatal(err)
	}
	if e := base.Benchmarks["BenchmarkHot"]; e.AllocsPerOp != 0 || e.MemRuns == 0 {
		t.Fatalf("baseline mutated by a refused update: %+v", e)
	}

	// A zero-alloc refresh still goes through.
	sb.Reset()
	if err := run([]string{"-out", outPath, "-baseline", basePath, "-update-baseline"},
		strings.NewReader(zero), &sb); err != nil {
		t.Fatalf("clean refresh refused: %v", err)
	}
}

// Tracked metrics appear as info lines and in the snapshot artifact, and
// never gate: a wild metric swing with identical ns/op passes.
func TestMetricsReportedNotGated(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "o.json")
	basePath := filepath.Join(dir, "b.json")
	withMetric := "BenchmarkSvc-8   2   1000 ns/op   0.90 hit-ratio\n"
	var sb strings.Builder
	if err := run([]string{"-out", outPath, "-baseline", basePath, "-update"},
		strings.NewReader(withMetric), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "info BenchmarkSvc: 0.9 hit-ratio") {
		t.Fatalf("metric info line missing:\n%s", sb.String())
	}
	js, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Benchmarks["BenchmarkSvc"].Metrics["hit-ratio"] != 0.90 {
		t.Fatalf("snapshot metrics = %v", snap.Benchmarks["BenchmarkSvc"].Metrics)
	}
	// Same time, collapsed hit-ratio: still green.
	sb.Reset()
	if err := run([]string{"-out", outPath, "-baseline", basePath},
		strings.NewReader("BenchmarkSvc-8   2   1000 ns/op   0.10 hit-ratio\n"), &sb); err != nil {
		t.Fatalf("metric swing gated: %v\n%s", err, sb.String())
	}
}
