// Command karyon-sim runs one named KARYON scenario — replicated across a
// seed matrix — and prints the aggregated summary.
//
// Usage:
//
//	karyon-sim -scenario highway [-seed N] [-duration 2m] [-cars 30] [-mode adaptive|fixed1|fixed2|fixed3|reckless] [-fault-rate 2] [-jam-every 30s -jam-burst 2s] [-medium] [-channels 2]
//	karyon-sim -scenario megahighway [-cars 200] [-length 10000] [-loss 0.05] [-shards N] [-medium] [-jam-every 30s -jam-burst 2s]
//	karyon-sim -scenario intersection [-failat 60s] [-nobackup] [-medium] [-jam-every 30s -jam-burst 2s]
//	karyon-sim -scenario encounter [-geometry same-direction|leveled-crossing|level-change] [-voice]
//	karyon-sim -scenario E13 [-medium] [-replicas N]
//	karyon-sim -scenario highway -record run.ktr [-checkpoint-every 50] [-perturb-window N]
//	karyon-sim -replay run.ktr [-window A:B] [-shards N]
//
// The scenario flags fill one service.JobSpec, the job spec karyon-d
// accepts. Its Normalize applies every default and validity rule, and its
// Build makes the run, whether that run executes in-process or on a
// daemon; so -scenario also takes any experiment id (E1..E16, E-MAC-S),
// and a flag means the same thing through either door. The corner inputs
// follow Normalize: -seed 0 is the default seed 1, a zero or negative
// -cars is the scenario default, and -duration 0, -loss outside [0,1],
// a negative duration or -fault-rate, and a non-finite -loss, -length,
// -v2v-range or -fault-rate are errors.
//
// All scenarios accept -replicas, -parallel, -shards, and -json. The
// output is byte-identical for any -parallel and any -shards value at a
// fixed seed: both knobs trade wall time only. -shards splits one
// replica's world across shards; every world scenario (highway,
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
// rendered output is identical to local mode, since both run the same
// normalized spec; a cache-hit note goes to stderr only. The client
// retries transport errors and degraded-mode 503s with exponential
// backoff (-daemon-retries / -daemon-backoff) and resumes a dropped
// result stream mid-job — all safe because job IDs are
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
	// The scenario flags fill one service.JobSpec, the daemon's wire form;
	// its Normalize holds every default and validity rule for both paths.
	var spec service.JobSpec
	var loss float64
	fs.StringVar(&spec.Scenario, "scenario", "highway", "highway | megahighway | intersection | encounter | an experiment id (E1..E16, E-MAC-S)")
	fs.Int64Var(&spec.Seed, "seed", 0, "base seed of the replica seed matrix (0 = default 1)")
	fs.StringVar(&spec.Duration, "duration", "", "simulated duration, positive (empty = default 2m)")
	fs.IntVar(&spec.Cars, "cars", 0, "highway/megahighway: number of cars (0 or negative = scenario default)")
	fs.Float64Var(&spec.Length, "length", 0, "megahighway: ring circumference in meters (0 = default 10000)")
	fs.Float64Var(&loss, "loss", 0, "megahighway: per-beacon loss probability in [0,1] (unset = default 0.05)")
	fs.Float64Var(&spec.V2VRange, "v2v-range", 0, "megahighway: beacon reach in meters (0 = default 300); bounds the widest -shards partition")
	fs.StringVar(&spec.Mode, "mode", "", "highway: adaptive|fixed1|fixed2|fixed3|reckless (empty = adaptive)")
	fs.Float64Var(&spec.FaultRate, "fault-rate", 0, "highway: randomized fault-campaign events per simulated minute (0 = none)")
	fs.StringVar(&spec.JamEvery, "jam-every", "", "highway/megahighway/intersection: period between V2V jam bursts (empty = none)")
	fs.StringVar(&spec.JamBurst, "jam-burst", "", "highway/megahighway/intersection: duration of each V2V jam burst")
	fs.BoolVar(&spec.Medium, "medium", false, "highway/megahighway/intersection: slot-level sharded radio medium (airtime, collisions, carrier sense) instead of abstract loss draws")
	fs.IntVar(&spec.Channels, "channels", 0, "orthogonal radio channels for -medium (0 = default 1)")
	fs.StringVar(&spec.FailAt, "failat", "", "intersection: when the physical light fails (empty = never)")
	fs.BoolVar(&spec.NoBackup, "nobackup", false, "intersection: disable the virtual traffic light")
	fs.StringVar(&spec.Geometry, "geometry", "", "encounter: same-direction|leveled-crossing|level-change (empty = leveled-crossing)")
	fs.BoolVar(&spec.Voice, "voice", false, "encounter: intruder is non-collaborative (voice position only)")
	fs.IntVar(&spec.Replicas, "replicas", 0, "independent replicas, seeds spaced by the harness stride (0 = default 1)")
	fs.IntVar(&spec.Shards, "shards", 0, "shards per replica (world scenarios; 0 = default 1); affects wall time only, never output")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "replica worker-pool width; affects wall time only, never output")
	jsonOut := fs.Bool("json", false, "emit a JSON report with full per-value distributions")
	daemon := fs.String("daemon", "", "submit to a karyon-d control API at this URL instead of running in-process (e.g. http://127.0.0.1:7077)")
	daemonRetries := fs.Int("daemon-retries", 3, "-daemon: max retries per API call on transport errors and degraded-mode 503s (safe: deterministic job IDs dedupe replays); negative disables")
	daemonBackoff := fs.Duration("daemon-backoff", 100*time.Millisecond, "-daemon: base of the exponential retry backoff (doubles per attempt, seeded jitter, server Retry-After honored)")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile (after a final GC) to this file at exit")
	var rec harness.Recording
	fs.StringVar(&rec.TracePath, "record", "", "highway/megahighway: write a record/replay trace of the run to this file (requires -replicas 1, no -fault-rate, no -daemon)")
	fs.IntVar(&rec.CheckpointEvery, "checkpoint-every", 0, "-record: windows between full-state checkpoints, the replay restart points (0 = default 50)")
	fs.Uint64Var(&rec.PerturbWindow, "perturb-window", 0, "-record: force car 0 to brake at this window's barrier — a deliberate divergence for exercising karyon-bisect (0 = none)")
	replayPath := fs.String("replay", "", "re-run a recorded trace from the nearest checkpoint and verify byte-identity window by window; nonzero exit on divergence")
	windowRange := fs.String("window", "", "-replay: window range A:B, 1-based inclusive (empty = the full trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "loss" {
			spec.Loss = &loss // unset leaves Normalize's default
		}
	})
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
		return runReplay(*replayPath, *windowRange, spec.Shards, out)
	}
	spec, err := spec.Normalize()
	if err != nil {
		return fmt.Errorf("karyon-sim: %w", err)
	}
	if rec.TracePath != "" {
		switch {
		case spec.Replicas != 1:
			return errors.New("karyon-sim: -record requires -replicas 1 (a trace captures exactly one run)")
		case *daemon != "":
			return errors.New("karyon-sim: -record runs in-process; drop -daemon")
		}
	}
	var rep *harness.Report
	if *daemon != "" {
		client := serviceclient.NewWithOptions(*daemon, serviceclient.Options{
			Retries:     *daemonRetries,
			BackoffBase: *daemonBackoff,
			Seed:        spec.Seed,
		})
		var st *service.Status
		if st, rep, err = client.Run(context.Background(), spec); err != nil {
			return err
		}
		if st.Cached {
			fmt.Fprintf(os.Stderr, "karyon-sim: job %.12s served from the daemon's run cache\n", st.ID)
		}
	} else {
		sc, err := spec.Build()
		if err == nil && rec.TracePath != "" {
			sc, err = harness.Record(sc, rec)
		}
		if err != nil {
			return fmt.Errorf("karyon-sim: %w", err)
		}
		if rep, err = harness.Run(context.Background(), sc, spec.Options(*parallel)); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprint(out, rep.Summary.Table().String())
	return nil
}

// runReplay is the -replay mode: verify a recorded trace range against a
// fresh re-execution. shardsOverride 0 (-shards unset) replays at the
// recorded width.
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
