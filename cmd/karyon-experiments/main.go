// Command karyon-experiments regenerates every experiment table in
// EXPERIMENTS.md (E1..E16 plus E-MAC-S). Identical seeds reproduce
// identical output: each experiment is run as a replicated seed matrix
// through the harness runner, and the aggregate is byte-identical for any
// -parallel value.
//
// Usage:
//
//	karyon-experiments [-seed N] [-only E5[,E6,...]] [-replicas N] [-parallel N] [-shards N] [-medium] [-csv | -json] [-short]
//
// With -replicas 0 (the default) each experiment uses its own default:
// statistical experiments (E11, E12, E14, E-MAC-S) run replicated so
// their tables carry confidence intervals; the rest run once.
//
// -medium runs the world-building experiments (E2, E12) over the
// slot-level sharded radio medium instead of abstract per-receiver loss
// draws; E-MAC-S always runs the medium (it is the subject). It changes
// the modeled physics, so compare tables only at equal -medium settings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"karyon/internal/experiments"
	"karyon/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// report pairs the registry metadata with the harness outcome for JSON
// output.
type report struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Anchor string `json:"anchor"`
	*harness.Report
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("karyon-experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "base seed of the replica seed matrix")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON reports with full per-value distributions (mean/stddev/min/max/p95)")
	replicas := fs.Int("replicas", 0, "independent replicas per experiment, seeds spaced by the harness stride (0 = per-experiment default; statistical experiments replicate)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "replica worker-pool width; affects wall time only, never output")
	shards := fs.Int("shards", 1, "shards per replica for world scenarios; affects wall time only, never output")
	short := fs.Bool("short", false, "reduced-fidelity runs: fewer sweep points, shorter simulated durations")
	medium := fs.Bool("medium", false, "run world experiments (E2, E12) over the slot-level sharded radio medium")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}
	opts := harness.Options{Seed: *seed, Parallel: *parallel, Shards: *shards}
	var reports []report
	for _, e := range selected {
		opts.Replicas = *replicas
		if opts.Replicas < 1 {
			opts.Replicas = e.DefaultReplicas()
		}
		rep, err := harness.Run(context.Background(), experiments.Harnessed{Exp: e, Short: *short, Medium: *medium}, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			reports = append(reports, report{ID: e.ID, Title: e.Title, Anchor: e.Anchor, Report: rep})
			continue
		}
		fmt.Fprintf(out, "== %s — %s (%s)\n", e.ID, e.Title, e.Anchor)
		tab := rep.Summary.Table()
		if *csv {
			fmt.Fprint(out, tab.CSV())
		} else {
			fmt.Fprintln(out, tab.String())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}
