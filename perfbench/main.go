// Command perfbench is the KARYON benchmark: one workload per invocation,
// timed end to end with no tracing (--trace 0) or split layer by layer from
// spans the benchmark records around its calls into each layer (--trace 1).
//
//	perfbench --workload radio-5k --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is the result object: correctness, the
// operations attempted and failed, and every metric by name with its unit.
// The line before it stamps the host, the run, and each metric's sample
// count. README.md in this directory records why each workload exists and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd is every metric an untraced run reports. Each is defined on
// every workload in terms of that workload's operation (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"simsec_per_s", "simsec/s"},
	{"ops_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"op_ms.tail", "ms"},
	{"heap_mb", "MB"},
}

// perLayer is every metric a traced run reports; a layer a workload never
// enters reads 0.
var perLayer = []metricDef{
	{"sim.window_ms.p50", "ms"},
	{"sim.window_ms.tail", "ms"},
	{"sim.shard_ms.max", "ms"},
	{"sim.shard_ms.sum", "ms"},
	{"sim.barrier_ms", "ms"},
	{"sim.serial_fraction", "ratio"},
	{"sim.imbalance", "ratio"},
	{"sim.unaccounted_fraction", "ratio"},
	{"sim.events_per_window", "count"},
	{"sim.shard_ns_per_event", "ns"},
	{"world.beacons_delivered_per_window", "count"},
	{"world.crossers_per_window", "count"},
	{"world.barrier_ns_per_beacon", "ns"},
	{"wireless.frames_per_window", "count"},
	{"wireless.collisions_per_window", "count"},
	{"wireless.deferrals_per_window", "count"},
	{"wireless.retries_per_window", "count"},
	{"wireless.barrier_ns_per_frame", "ns"},
	{"trace.record_simsec_per_s", "simsec/s"},
	{"trace.bytes_per_window", "B"},
	{"trace.bytes_per_simsec", "B/simsec"},
	{"trace.checkpoint_bytes", "B"},
	{"trace.checkpoint_barrier_ms", "ms"},
	{"trace.sink_write_ms", "ms"},
	{"trace.parse_ms", "ms"},
	{"trace.restore_ms", "ms"},
	{"trace.replay_ns_per_window", "ns"},
	{"service.submit_ms.p50", "ms"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.stream_ms.p50", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.deduped", "count"},
	{"service.refused", "count"},
	{"serviceclient.miss_first_line_ms.p50", "ms"},
	{"serviceclient.miss_done_ms.p50", "ms"},
	{"serviceclient.miss_done_ms.tail", "ms"},
	{"serviceclient.hit_done_ms.p50", "ms"},
	{"serviceclient.hit_done_ms.tail", "ms"},
	{"go.alloc_bytes_per_window", "B"},
	{"go.gc_cycles_per_simsec", "1/simsec"},
	{"go.gc_pause_ms", "ms"},
	{"go.retained_bytes_per_op", "B"},
	{"bench.trace_overhead", "ratio"},
}

// runConfig is what one invocation was asked to do.
type runConfig struct {
	Workload string
	Seed     int64
	Budget   time.Duration // measured time (split in two when traced)
	Traced   bool
}

// outcome is what a workload hands back: the operations it attempted and
// failed, the metric values it measured, each series' sample count, and
// (traced runs) the spans it recorded.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
	Samples   map[string]int
	// Notes are failed correctness checks, printed to standard error.
	Notes []string
	Spans []span
}

func newOutcome() *outcome {
	return &outcome{Values: map[string]float64{}, Samples: map[string]int{}}
}

// fail counts one failed operation and records why.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// timing records a series' median and tail under name.p50 / name.tail.
func (o *outcome) timing(name string, xs []float64) {
	d := summarize(xs)
	o.Values[name+".p50"] = d.P50
	o.Values[name+".tail"] = d.Tail
	o.Samples[name] = d.N
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"radio-5k":      func(c runConfig) (*outcome, error) { return runWorld(c, radio5k()) },
	"record-replay": runRecordReplay,
	"daemon-mix":    runDaemonMix,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "radio-5k | record-replay | daemon-mix")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured wall seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of radio-5k, record-replay, daemon-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Traced: *trace == 1,
		Budget: time.Duration(*seconds * float64(time.Second)),
	}
	wallStart, cpu0 := time.Now(), readCPUTicks()
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	for _, n := range out.Notes {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.Workload, n)
	}
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
		if err := writeSpans(cfg, out.Spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := resultLine{
		Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := out.Values[d.name]
		if !ok && !cfg.Traced {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.Workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s measured %s = %v\n", cfg.Workload, d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", cfg.Workload)
		return 1
	}
	stampLine, err := json.Marshal(newStamp(cfg, out, time.Since(wallStart), cpu0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", stampLine, resLine)
	return 0
}

// scratchDir is where a run keeps its files: under .bench_build in the
// working directory, next to the build, so nothing is written elsewhere.
func scratchDir(parts ...string) (string, error) {
	dir := filepath.Join(append([]string{".bench_build"}, parts...)...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// writeSpans writes a traced run's spans, one JSON object a line, to
// .bench_build/spans/<workload>-seed<n>.jsonl.
func writeSpans(cfg runConfig, spans []span) error {
	dir, err := scratchDir("spans")
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
