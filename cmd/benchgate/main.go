// Command benchgate is the CI benchmark regression gate: it parses `go
// test -bench` output, emits a machine-readable JSON snapshot, and fails
// when any benchmark's ns/op — or, with -benchmem data present on both
// sides, allocs/op — regressed beyond its tolerance.
//
// Usage (committed-baseline mode):
//
//	go test -run NONE -bench ... -count 3 -benchmem . | go run ./cmd/benchgate \
//	    -out BENCH_PR4.json -baseline BENCH_BASELINE.json -max-regress 0.20
//
// Usage (merge-base mode):
//
//	go test -run NONE -bench ... -count 3 -benchmem . | go run ./cmd/benchgate \
//	    -out BENCH_PR4.json -merge-base origin/main -max-regress 0.20
//
// With -merge-base the gate checks out the merge base of HEAD and the
// given ref into a throwaway git worktree, benches that build in the same
// CI run, and compares against it — a relative gate immune to runner
// hardware churn, because both sides ran on the same machine minutes
// apart. The committed absolute baseline remains the fallback for
// environments without git history (shallow clones) or when the
// merge-base build does not compile the benchmark set.
//
// With -count > 1 the gate scores each benchmark by its fastest run —
// the minimum is the measurement least polluted by scheduler noise; the
// same minimum rule applies to allocs/op and B/op independently. Pass
// -update (or its self-describing alias -update-baseline) to rewrite the
// baseline from the current run instead of comparing (do this when the
// benchmark set or the reference hardware changes, and commit the
// result). The zero-alloc ratchet guards both directions: a benchmark
// whose committed baseline sits at 0 allocs/op fails the gate if it
// allocates again, and -update refuses to launder such a regression into
// a fresh baseline.
//
// Benchmarks named <family>/shards=N additionally get a tracked (not
// gated) parallel-efficiency score — speedup over the family's shards=1
// variant divided by N — recorded in the snapshot JSON and printed as
// info lines. Custom b.ReportMetric columns (events/s, hit-ratio,
// p95-ms, ...) are likewise tracked: each is recorded in the snapshot as
// its mean across runs — ratios and percentiles have no "fastest run" —
// and printed as an info line, but never gated. Pass -results-dir
// benchmarks/results to also archive the run as a timestamped JSON
// stamped with the host's core count, GOMAXPROCS, and Go version, so
// efficiency can be compared across runners with different hardware.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's score.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// Runs is how many times the benchmark appeared (the -count).
	Runs int `json:"runs"`
	// BytesPerOp/AllocsPerOp carry the -benchmem columns; MemRuns counts
	// how many runs carried them (0 = the run had no -benchmem, and the
	// allocation gate is skipped for this entry).
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MemRuns     int     `json:"mem_runs,omitempty"`
	// Metrics carries the benchmark's custom b.ReportMetric columns
	// (events/s, hit-ratio, p95-ms, ...), each the mean across runs —
	// unlike ns/op these are often ratios or percentiles, where the mean is
	// the honest summary and a minimum would flatter. Tracked in the
	// snapshot and printed as info lines, never gated: their tolerances are
	// metric-specific and belong to a human reading the trend.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the gate's JSON artifact.
type Snapshot struct {
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Efficiency tracks parallel efficiency — speedup over the shards=1
	// sibling divided by the shard count — for every sharded benchmark
	// variant (see efficiency). Tracked, not gated: it is a property of
	// the host's core count as much as of the code, so snapshots record
	// it for trend inspection while the gate stays on ns/op and allocs.
	Efficiency map[string]float64 `json:"parallel_efficiency,omitempty"`
}

// shardedName captures the shard width of a sharded benchmark variant and
// its family prefix, e.g. BenchmarkMegaHighwaySharded/shards=8/medium
// -> family BenchmarkMegaHighwaySharded, width 8.
var shardedName = regexp.MustCompile(`^(.+)/shards=(\d+)(/.*)?$`)

// efficiency computes, for every benchmark named <family>/shards=N[/...]
// with N > 1 whose family also ran at shards=1, the parallel efficiency
// ns(shards=1) / (ns(variant) · N) — 1.0 is a perfect linear speedup, 1/N
// means the extra shards bought nothing (the single-core floor). Variants
// past the width (e.g. /medium) are scored against the same plain
// shards=1 baseline, so they are read off the same scale.
func efficiency(snap *Snapshot) {
	for name, e := range snap.Benchmarks {
		m := shardedName.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil || n <= 1 {
			continue
		}
		base, ok := snap.Benchmarks[m[1]+"/shards=1"]
		if !ok || e.NsPerOp <= 0 {
			continue
		}
		if snap.Efficiency == nil {
			snap.Efficiency = map[string]float64{}
		}
		snap.Efficiency[name] = base.NsPerOp / (e.NsPerOp * float64(n))
	}
}

// Host describes the machine a result was measured on.
type Host struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// ResultFile is one timestamped benchmark result archived under
// benchmarks/results/: the snapshot plus when and where it was measured,
// so efficiency trends can be compared across runs and runner hardware.
type ResultFile struct {
	Timestamp string `json:"timestamp"`
	Host      Host   `json:"host"`
	*Snapshot
}

// benchLine matches one `go test -bench` result line, with optional
// -benchmem columns (custom metrics like events/s may sit between ns/op
// and the memory columns). The -N GOMAXPROCS suffix is stripped so scores
// compare across machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*?\s([0-9.e+]+) B/op\s+([0-9.e+]+) allocs/op)?`)

// metricToken matches one "<value> <unit>" column. Applied to the tail of
// a bench line it picks up the custom b.ReportMetric columns; the standard
// ns/op, B/op, and allocs/op units are filtered by the caller.
var metricToken = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?) ([A-Za-z][\w/%.-]*)`)

// parse reads bench output, keeping each benchmark's fastest run — the
// measurement least polluted by scheduler noise — with the same minimum
// rule applied to the memory columns independently. Custom b.ReportMetric
// columns are averaged across runs into Entry.Metrics.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: map[string]Entry{}}
	metricRuns := map[string]int{} // "<bench>\x00<unit>" -> runs seen
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		e, seen := snap.Benchmarks[m[1]]
		if !seen || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		e.Runs++
		if m[3] != "" {
			bytes, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad B/op in %q: %w", sc.Text(), err)
			}
			allocs, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
			}
			if e.MemRuns == 0 || bytes < e.BytesPerOp {
				e.BytesPerOp = bytes
			}
			if e.MemRuns == 0 || allocs < e.AllocsPerOp {
				e.AllocsPerOp = allocs
			}
			e.MemRuns++
		}
		for _, t := range metricToken.FindAllStringSubmatch(sc.Text(), -1) {
			unit := t[2]
			if unit == "ns/op" || unit == "B/op" || unit == "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(t[1], 64)
			if err != nil {
				continue
			}
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			k := m[1] + "\x00" + unit
			metricRuns[k]++
			// Incremental mean: ratios and percentiles have no "fastest run".
			e.Metrics[unit] += (v - e.Metrics[unit]) / float64(metricRuns[k])
		}
		snap.Benchmarks[m[1]] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines found in input")
	}
	return snap, nil
}

// compare checks current against baseline and returns the human-readable
// verdict lines plus whether the gate passes. Every baseline benchmark
// must be present in the current run — a silently skipped benchmark would
// otherwise read as "no regression". When both sides carry -benchmem data
// the allocation count is gated alongside the time: allocs/op is
// near-deterministic, so it catches hot-path allocation creep long before
// it shows up through timing noise.
func compare(baseline, current *Snapshot, maxRegress, maxAllocsRegress float64) ([]string, bool) {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	ok := true
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, present := current.Benchmarks[name]
		if !present {
			lines = append(lines, fmt.Sprintf("FAIL %s: in baseline but not in current run", name))
			ok = false
			continue
		}
		delta := cur.NsPerOp/base.NsPerOp - 1
		verdict := "ok  "
		if delta > maxRegress {
			verdict = "FAIL"
			ok = false
		}
		lines = append(lines, fmt.Sprintf("%s %s: %.1f ns/op vs baseline %.1f (%+.1f%%, limit +%.0f%%)",
			verdict, name, cur.NsPerOp, base.NsPerOp, delta*100, maxRegress*100))
		if base.MemRuns == 0 || cur.MemRuns == 0 {
			continue
		}
		verdict = "ok  "
		switch {
		case base.AllocsPerOp == 0:
			// A zero-alloc benchmark must stay zero-alloc.
			if cur.AllocsPerOp > 0 {
				verdict = "FAIL"
				ok = false
			}
			lines = append(lines, fmt.Sprintf("%s %s: %.0f allocs/op vs baseline 0 (zero-alloc must stay zero)",
				verdict, name, cur.AllocsPerOp))
		default:
			adelta := cur.AllocsPerOp/base.AllocsPerOp - 1
			if adelta > maxAllocsRegress {
				verdict = "FAIL"
				ok = false
			}
			lines = append(lines, fmt.Sprintf("%s %s: %.0f allocs/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				verdict, name, cur.AllocsPerOp, base.AllocsPerOp, adelta*100, maxAllocsRegress*100))
		}
	}
	return lines, ok
}

// ratchetViolations returns the benchmarks whose committed baseline is
// pinned at zero allocs/op but whose new snapshot allocates. The
// zero-alloc ratchet guards -update as well as compare: once a hot path
// reaches zero steady-state allocations, a regression cannot be laundered
// into the baseline by refreshing it — the churn has to be fixed.
func ratchetViolations(old, next *Snapshot) []string {
	var bad []string
	for name, base := range old.Benchmarks {
		cur, ok := next.Benchmarks[name]
		if !ok || base.MemRuns == 0 || cur.MemRuns == 0 {
			continue
		}
		if base.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("%s (%.0f allocs/op, ratcheted at 0)", name, cur.AllocsPerOp))
		}
	}
	sort.Strings(bad)
	return bad
}

// gitOut runs git with args and returns its trimmed stdout.
func gitOut(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		detail := ""
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(ee.Stderr) > 0 {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return "", fmt.Errorf("benchgate: git %s failed%s: %w", strings.Join(args, " "), detail, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// mergeBaseSnapshot benches the merge base of HEAD and ref in a throwaway
// worktree and returns the parsed snapshot — the same-run relative
// baseline. benchtime must match what the HEAD side ran with: comparing
// iterations of a different count would measure a different workload.
func mergeBaseSnapshot(ref, pattern, benchtime string, count int, log io.Writer) (*Snapshot, error) {
	sha, err := gitOut("merge-base", "HEAD", ref)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "benchgate-base-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := gitOut("worktree", "add", "--detach", dir, sha); err != nil {
		return nil, err
	}
	defer func() { _, _ = gitOut("worktree", "remove", "--force", dir) }()
	fmt.Fprintf(log, "benchgate: benching merge base %s (%s vs HEAD)\n", sha[:12], ref)
	args := []string{"test", "-run", "NONE", "-bench", pattern, "-count", strconv.Itoa(count), "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("benchgate: merge-base bench failed (%v): %s — fall back to the committed -baseline", err, strings.TrimSpace(stderr.String()))
	}
	return parse(&out)
}

func writeSnapshot(path string, snap *Snapshot) error {
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// writeResult archives the snapshot as a timestamped result file under dir,
// stamped with the host the run was measured on, and returns the path. The
// filename is derived from the timestamp so successive CI runs accumulate
// rather than overwrite.
func writeResult(dir string, snap *Snapshot, now time.Time) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	res := ResultFile{
		Timestamp: now.UTC().Format(time.RFC3339),
		Host: Host{
			Cores:      runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
		},
		Snapshot: snap,
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "bench-"+now.UTC().Format("20060102T150405Z")+".json")
	return path, os.WriteFile(path, append(js, '\n'), 0o644)
}

// reportMetrics prints the tracked custom-metric lines in stable
// name/unit order.
func reportMetrics(snap *Snapshot, out io.Writer) {
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		if len(snap.Benchmarks[name].Metrics) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		metrics := snap.Benchmarks[name].Metrics
		units := make([]string, 0, len(metrics))
		for unit := range metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			fmt.Fprintf(out, "info %s: %.4g %s (mean across runs; tracked, not gated)\n",
				name, metrics[unit], unit)
		}
	}
}

// reportEfficiency prints the tracked parallel-efficiency lines in stable
// name order.
func reportEfficiency(snap *Snapshot, out io.Writer) {
	names := make([]string, 0, len(snap.Efficiency))
	for name := range snap.Efficiency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "info %s: parallel efficiency %.2f (speedup over shards=1 / shard count; tracked, not gated)\n",
			name, snap.Efficiency[name])
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	inPath := fs.String("in", "-", "bench output to parse (- = stdin)")
	outPath := fs.String("out", "BENCH_PR4.json", "where to write the JSON snapshot artifact")
	basePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline to gate against")
	maxRegress := fs.Float64("max-regress", 0.20, "maximum tolerated ns/op regression (0.20 = +20%)")
	maxAllocsRegress := fs.Float64("max-allocs-regress", 0.10, "maximum tolerated allocs/op regression when both sides carry -benchmem data (0.10 = +10%)")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	updateBaseline := fs.Bool("update-baseline", false, "alias of -update: regenerate the committed baseline from this run")
	mergeBase := fs.String("merge-base", "", "bench the merge base of HEAD and this ref in a throwaway worktree and gate against it (same-run relative comparison) instead of the committed baseline")
	benchPattern := fs.String("bench", ".", "benchmark pattern for the merge-base run (with -merge-base)")
	benchCount := fs.Int("bench-count", 3, "bench -count for the merge-base run (with -merge-base)")
	benchTime := fs.String("bench-time", "", "bench -benchtime for the merge-base run — MUST match the HEAD-side run (with -merge-base)")
	resultsDir := fs.String("results-dir", "", "also archive this run as a timestamped result JSON with host metadata under this directory (e.g. benchmarks/results)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	snap, err := parse(in)
	if err != nil {
		return err
	}
	efficiency(snap)
	reportEfficiency(snap, out)
	reportMetrics(snap, out)
	if err := writeSnapshot(*outPath, snap); err != nil {
		return err
	}
	if *resultsDir != "" {
		path, err := writeResult(*resultsDir, snap, time.Now())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "benchgate: archived result %s\n", path)
	}
	if *update || *updateBaseline {
		// The zero-alloc ratchet holds across baseline refreshes too: read
		// the outgoing baseline (when there is one) and refuse to replace a
		// 0 allocs/op entry with an allocating one.
		if bjs, err := os.ReadFile(*basePath); err == nil {
			var old Snapshot
			if err := json.Unmarshal(bjs, &old); err != nil {
				return fmt.Errorf("benchgate: corrupt baseline %s: %w", *basePath, err)
			}
			if bad := ratchetViolations(&old, snap); len(bad) > 0 {
				return fmt.Errorf("benchgate: refusing to update baseline — zero-alloc ratchet violated by %s; once a benchmark's baseline hits 0 allocs/op it may never regress above zero, so fix the allocation churn instead of refreshing the baseline", strings.Join(bad, ", "))
			}
		}
		if err := writeSnapshot(*basePath, snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchgate: baseline %s rewritten with %d benchmarks\n", *basePath, len(snap.Benchmarks))
		return nil
	}
	var baseline Snapshot
	if *mergeBase != "" {
		base, err := mergeBaseSnapshot(*mergeBase, *benchPattern, *benchTime, *benchCount, out)
		if err != nil {
			return err
		}
		baseline = *base
		// A benchmark added by this change has no merge-base score; gate
		// only the intersection (compare iterates baseline names).
		for name := range baseline.Benchmarks {
			if _, ok := snap.Benchmarks[name]; !ok {
				fmt.Fprintf(out, "note %s: present at merge base only (renamed/removed), skipping\n", name)
				delete(baseline.Benchmarks, name)
			}
		}
		if len(baseline.Benchmarks) == 0 {
			return fmt.Errorf("benchgate: no common benchmarks between HEAD and merge base — fall back to the committed -baseline")
		}
	} else {
		bjs, err := os.ReadFile(*basePath)
		if err != nil {
			return fmt.Errorf("benchgate: cannot read baseline (run with -update to create it): %w", err)
		}
		if err := json.Unmarshal(bjs, &baseline); err != nil {
			return fmt.Errorf("benchgate: corrupt baseline %s: %w", *basePath, err)
		}
	}
	lines, ok := compare(&baseline, snap, *maxRegress, *maxAllocsRegress)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	if !ok {
		return fmt.Errorf("benchgate: benchmark regression beyond tolerance — if the benchmark set or reference hardware changed rather than the code, refresh the baseline with -update and commit it")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
