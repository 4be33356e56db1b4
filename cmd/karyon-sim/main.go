// Command karyon-sim runs one named KARYON scenario — replicated across a
// seed matrix — and prints the aggregated summary.
//
// Usage:
//
//	karyon-sim -scenario highway [-seed N] [-duration 2m] [-cars 30] [-mode adaptive|fixed1|fixed2|fixed3|reckless] [-fault-rate 2] [-jam-every 30s -jam-burst 2s] [-medium] [-channels 2]
//	karyon-sim -scenario megahighway [-cars 200] [-length 10000] [-loss 0.05] [-shards N] [-medium] [-jam-every 30s -jam-burst 2s]
//	karyon-sim -scenario intersection [-failat 60s] [-nobackup] [-medium] [-jam-every 30s -jam-burst 2s]
//	karyon-sim -scenario encounter [-geometry same-direction|leveled-crossing|level-change] [-voice]
//	karyon-sim -scenario highway -record run.ktr [-checkpoint-every 50] [-perturb-window N]
//	karyon-sim -replay run.ktr [-window A:B] [-shards N]
//
// All scenarios accept -replicas, -parallel, -shards, and -json. The
// output is byte-identical for any -parallel and any -shards value at a
// fixed seed: both knobs trade wall time only. -shards splits one
// replica's world across shard kernels; every world scenario (highway,
// megahighway, intersection) runs on the partitioned engine.
//
// The fault-campaign knobs make E2/E12-style runs reproducible straight
// from the CLI: -fault-rate injects that many randomized campaign events
// per simulated minute, -jam-every/-jam-burst add periodic V2V
// inaccessibility, and -failat is the intersection's light-failure time.
//
// -medium switches the world's V2V (or the intersection light's beacons)
// from abstract per-receiver loss draws onto the slot-level sharded radio
// medium — airtime occupancy, overlap collisions, carrier sense and jam
// windows, still byte-identical at every -shards width — and -channels
// sets its orthogonal channel count.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run —
// CPU samples over the whole execution, and a post-GC heap snapshot at
// exit — for `go tool pprof`. The memory profile pairs with the
// zero-alloc steady-state work: a regression flagged by the benchgate
// allocs ratchet is localized by rerunning the same scenario here with
// -memprofile.
//
// -record writes a compact binary trace of a highway/megahighway run —
// every window's state digest, counters and barrier decisions, plus
// periodic full checkpoints — at near-zero hot-path cost. -replay re-runs
// a recorded trace (any -window A:B range, resuming from the nearest
// checkpoint; any -shards width) and verifies byte-identity window by
// window, exiting nonzero with the first divergent window on mismatch.
// karyon-bisect compares two traces of the same spec and pinpoints the
// first divergent window with a side-by-side decision dump.
//
// -daemon URL submits the run to a resident karyon-d instead of executing
// in-process: the daemon dedupes equivalent runs and replays archived
// results byte-identically, so repeated sweeps cost one execution. The
// rendered output is identical to local mode; a cache-hit note goes to
// stderr only. The client retries transport errors and degraded-mode 503s
// with exponential backoff (-daemon-retries / -daemon-backoff) and
// resumes a dropped result stream mid-job — all safe because job IDs are
// deterministic content addresses, so a replayed submit dedupes instead
// of re-running.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"karyon/internal/harness"
	"karyon/internal/service"
	"karyon/internal/serviceclient"
	"karyon/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("karyon-sim", flag.ContinueOnError)
	scenario := fs.String("scenario", "highway", "highway | megahighway | intersection | encounter")
	seed := fs.Int64("seed", 1, "base seed of the replica seed matrix")
	duration := fs.Duration("duration", 2*time.Minute, "simulated duration")
	cars := fs.Int("cars", 0, "highway/megahighway: number of cars (0 = scenario default)")
	length := fs.Float64("length", 0, "megahighway: ring circumference in meters (0 = default)")
	loss := fs.Float64("loss", 0.05, "megahighway: per-beacon loss probability")
	v2vRange := fs.Float64("v2v-range", 0, "megahighway: beacon reach in meters (0 = default 300); bounds the widest -shards partition")
	mode := fs.String("mode", "adaptive", "highway: adaptive|fixed1|fixed2|fixed3|reckless")
	faultRate := fs.Float64("fault-rate", 0, "highway: randomized fault-campaign events per simulated minute (0 = none)")
	jamEvery := fs.Duration("jam-every", 0, "highway/megahighway/intersection: period between V2V jam bursts (0 = none)")
	jamBurst := fs.Duration("jam-burst", 0, "highway/megahighway/intersection: duration of each V2V jam burst")
	medium := fs.Bool("medium", false, "highway/megahighway/intersection: slot-level sharded radio medium (airtime, collisions, carrier sense) instead of abstract loss draws")
	channels := fs.Int("channels", 1, "orthogonal radio channels for -medium")
	failAt := fs.Duration("failat", 0, "intersection: when the physical light fails (0 = never)")
	noBackup := fs.Bool("nobackup", false, "intersection: disable the virtual traffic light")
	geometry := fs.String("geometry", "leveled-crossing", "encounter: same-direction|leveled-crossing|level-change")
	voice := fs.Bool("voice", false, "encounter: intruder is non-collaborative (voice position only)")
	replicas := fs.Int("replicas", 1, "independent replicas, seeds spaced by the harness stride")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "replica worker-pool width; affects wall time only, never output")
	shards := fs.Int("shards", 1, "shard kernels per replica (megahighway); affects wall time only, never output")
	jsonOut := fs.Bool("json", false, "emit a JSON report with full per-value distributions")
	daemon := fs.String("daemon", "", "submit to a karyon-d control API at this URL instead of running in-process (e.g. http://127.0.0.1:7077)")
	daemonRetries := fs.Int("daemon-retries", 3, "-daemon: max retries per API call on transport errors and degraded-mode 503s (safe: deterministic job IDs dedupe replays); negative disables")
	daemonBackoff := fs.Duration("daemon-backoff", 100*time.Millisecond, "-daemon: base of the exponential retry backoff (doubles per attempt, seeded jitter, server Retry-After honored)")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile (after a final GC) to this file at exit")
	record := fs.String("record", "", "highway/megahighway: write a record/replay trace of the run to this file (requires -replicas 1, no -fault-rate, no -daemon)")
	checkpointEvery := fs.Int("checkpoint-every", 50, "-record: windows between full-state checkpoints, the replay restart points")
	perturbWindow := fs.Uint64("perturb-window", 0, "-record: force car 0 to brake at this window's barrier — a deliberate divergence for exercising karyon-bisect (0 = none)")
	replayPath := fs.String("replay", "", "re-run a recorded trace from the nearest checkpoint and verify byte-identity window by window; nonzero exit on divergence")
	windowRange := fs.String("window", "", "-replay: window range A:B, 1-based inclusive (empty = the full trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("karyon-sim: -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("karyon-sim: -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("karyon-sim: -memprofile: %w", err)
		}
		defer func() {
			// A final GC settles the heap so the profile shows live
			// retention and the alloc_* totals, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "karyon-sim: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}
	if *replayPath != "" {
		shardsSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		override := 0
		if shardsSet {
			override = *shards
		}
		return runReplay(*replayPath, *windowRange, override, out)
	}
	if *record != "" {
		switch {
		case *scenario != "highway" && *scenario != "megahighway":
			return fmt.Errorf("karyon-sim: -record supports highway and megahighway, not %q", *scenario)
		case *replicas != 1:
			return errors.New("karyon-sim: -record requires -replicas 1 (a trace captures exactly one run)")
		case *faultRate > 0:
			return errors.New("karyon-sim: -record cannot reproduce a -fault-rate campaign")
		case *daemon != "":
			return errors.New("karyon-sim: -record runs in-process; drop -daemon")
		}
	}
	if *daemon != "" {
		spec := service.JobSpec{
			Scenario: *scenario, Seed: *seed, Replicas: *replicas, Shards: *shards,
			Duration: (*duration).String(), Cars: *cars,
			Length: *length, Loss: loss, V2VRange: *v2vRange, Mode: *mode,
			FaultRate: *faultRate, Medium: *medium, Channels: *channels,
			NoBackup: *noBackup, Geometry: *geometry, Voice: *voice,
		}
		if *jamEvery > 0 {
			spec.JamEvery = (*jamEvery).String()
		}
		if *jamBurst > 0 {
			spec.JamBurst = (*jamBurst).String()
		}
		if *failAt > 0 {
			spec.FailAt = (*failAt).String()
		}
		client := serviceclient.NewWithOptions(*daemon, serviceclient.Options{
			Retries:     *daemonRetries,
			BackoffBase: *daemonBackoff,
			Seed:        *seed,
		})
		st, rep, err := client.Run(context.Background(), spec)
		if err != nil {
			return err
		}
		if st.Cached {
			fmt.Fprintf(os.Stderr, "karyon-sim: job %.12s served from the daemon's run cache\n", st.ID)
		}
		return render(rep, *jsonOut, out)
	}
	var sc harness.Scenario
	switch *scenario {
	case "highway":
		n := *cars
		if n == 0 {
			n = 30
		}
		sc = harness.HighwayScenario{
			Duration: *duration, Cars: n, Mode: *mode,
			SensorFaultRate: *faultRate, JamEvery: *jamEvery, JamBurst: *jamBurst,
			Medium: *medium, Channels: *channels,
			TracePath: *record, CheckpointEvery: *checkpointEvery, PerturbWindow: *perturbWindow,
		}
	case "megahighway":
		sc = harness.MegaHighwayScenario{
			Duration: *duration, Cars: *cars, Length: *length, Loss: *loss, V2VRange: *v2vRange,
			Medium: *medium, Channels: *channels, JamEvery: *jamEvery, JamBurst: *jamBurst,
			TracePath: *record, CheckpointEvery: *checkpointEvery, PerturbWindow: *perturbWindow,
		}
	case "intersection":
		sc = harness.IntersectionScenario{
			Duration: *duration, FailAt: *failAt, VirtualBackup: !*noBackup,
			Medium: *medium, Channels: *channels, JamEvery: *jamEvery, JamBurst: *jamBurst,
		}
	case "encounter":
		sc = harness.EncounterScenario{Geometry: *geometry, Collaborative: !*voice}
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	rep, err := harness.Run(context.Background(), sc,
		harness.Options{Seed: *seed, Replicas: *replicas, Parallel: *parallel, Shards: *shards})
	if err != nil {
		return err
	}
	return render(rep, *jsonOut, out)
}

// runReplay is the -replay mode: verify a recorded trace range against a
// fresh re-execution. shardsOverride 0 replays at the recorded width.
func runReplay(path, windowRange string, shardsOverride int, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("karyon-sim: -replay: %w", err)
	}
	var opt world.ReplayOptions
	if windowRange != "" {
		if opt.From, opt.To, err = parseWindowRange(windowRange); err != nil {
			return err
		}
	}
	opt.Shards = shardsOverride
	res, err := world.ReplayTrace(data, opt)
	if err != nil {
		return fmt.Errorf("karyon-sim: replay of %s: %w", path, err)
	}
	fmt.Fprintf(out, "replay OK: %s windows %d:%d byte-identical (checkpoint %d, %d windows verified, %d shards)\n",
		res.Spec.Scenario, res.From, res.To, res.Checkpoint, res.Windows, res.Shards)
	return nil
}

// parseWindowRange parses the -window A:B form.
func parseWindowRange(s string) (from, to uint64, err error) {
	a, b, ok := strings.Cut(s, ":")
	if ok {
		from, err = strconv.ParseUint(a, 10, 64)
		if err == nil {
			to, err = strconv.ParseUint(b, 10, 64)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("karyon-sim: -window must be A:B (1-based, inclusive), got %q", s)
	}
	return from, to, nil
}

// render prints a report exactly the same way for local and daemon runs.
func render(rep *harness.Report, jsonOut bool, out io.Writer) error {
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprint(out, rep.Summary.Table().String())
	return nil
}
