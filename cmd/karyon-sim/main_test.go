package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"karyon/internal/service"
)

func TestRunHighwayScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", "highway", "-duration", "10s", "-cars", "8"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"highway", "flow", "collisions", "final LoS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunHighwayModes(t *testing.T) {
	for _, mode := range []string{"adaptive", "fixed1", "fixed2", "fixed3", "reckless"} {
		var sb strings.Builder
		if err := run([]string{"-scenario", "highway", "-duration", "5s", "-cars", "5", "-mode", mode}, &sb); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-scenario", "highway", "-mode", "bogus"}, &sb); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// The tentpole acceptance: -shards N output is byte-identical to
// -shards 1 at a fixed seed; sharding trades wall time only.
func TestRunMegaHighwayShardInvariance(t *testing.T) {
	base := []string{"-scenario", "megahighway", "-duration", "2s", "-cars", "60", "-length", "3000", "-seed", "4"}
	var one, four strings.Builder
	if err := run(append(base, "-shards", "1"), &one); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shards", "4"), &four); err != nil {
		t.Fatal(err)
	}
	if one.String() != four.String() {
		t.Fatalf("-shards changed output:\n1 shard:\n%s\n4 shards:\n%s", one.String(), four.String())
	}
	for _, want := range []string{"megahighway", "beacons sent", "collisions"} {
		if !strings.Contains(one.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, one.String())
		}
	}
	// Non-shardable scenarios accept the flag and ignore it.
	var a, b strings.Builder
	enc := []string{"-scenario", "encounter", "-geometry", "same-direction"}
	if err := run(append(enc, "-shards", "1"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(append(enc, "-shards", "8"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("-shards changed a non-shardable scenario's output")
	}
}

func TestRunIntersectionScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", "intersection", "-duration", "30s"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "conflicts") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunEncounterScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", "encounter", "-geometry", "same-direction"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "violations") {
		t.Fatalf("output:\n%s", sb.String())
	}
	if err := run([]string{"-scenario", "encounter", "-geometry", "bogus"}, &sb); err == nil {
		t.Fatal("bogus geometry accepted")
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "teleport"}, &sb); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// Replicated scenario runs must not depend on the worker-pool width.
func TestReplicatedScenarioIsParallelInvariant(t *testing.T) {
	base := []string{"-scenario", "encounter", "-geometry", "leveled-crossing", "-seed", "5", "-replicas", "4"}
	var seq, par strings.Builder
	if err := run(append(base, "-parallel", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-parallel", "8"), &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("-parallel changed output:\nserial:\n%s\nparallel:\n%s", seq.String(), par.String())
	}
}

func TestScenarioJSONReport(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "intersection", "-duration", "20s", "-replicas", "2", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Name    string  `json:"name"`
		Seeds   []int64 `json:"seeds"`
		Summary struct {
			Replicas int
		}
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if rep.Name != "intersection" || len(rep.Seeds) != 2 || rep.Summary.Replicas != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

// -medium runs every world scenario on the slot-level radio, still
// byte-identical across -shards, with jam knobs accepted everywhere.
func TestRunMediumScenariosShardInvariance(t *testing.T) {
	cases := [][]string{
		{"-scenario", "megahighway", "-duration", "2s", "-cars", "60", "-length", "3000",
			"-seed", "4", "-medium", "-channels", "2", "-jam-every", "1s", "-jam-burst", "300ms"},
		{"-scenario", "intersection", "-duration", "30s", "-seed", "4", "-medium",
			"-jam-every", "10s", "-jam-burst", "2s"},
	}
	for _, base := range cases {
		var one, four strings.Builder
		if err := run(append(base, "-shards", "1"), &one); err != nil {
			t.Fatal(err)
		}
		if err := run(append(base, "-shards", "4"), &four); err != nil {
			t.Fatal(err)
		}
		if one.String() != four.String() {
			t.Fatalf("-shards changed -medium output for %v:\n1 shard:\n%s\n4 shards:\n%s",
				base, one.String(), four.String())
		}
	}
	// Medium-mode highway reports the radio accounting.
	var sb strings.Builder
	if err := run([]string{"-scenario", "highway", "-duration", "10s", "-cars", "12", "-medium"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"delivery ratio", "radio collisions", "inacc p95 ms"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %q in medium-mode output:\n%s", want, sb.String())
		}
	}
}

// -daemon submits to karyon-d and must render byte-identically to a local
// run of the same flags — cached or not, table or JSON. Both paths run the
// same JobSpec.Normalize → Build, so every scenario, every experiment id and
// every corner input (seed 0, zero duration, negative cars, loss outside
// [0,1]) means the same run, or the same error, through either door.
func TestDaemonModeMatchesLocalOutput(t *testing.T) {
	srv, err := service.New(service.Config{
		CacheDir: t.TempDir(), Workers: 2, Log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	for _, tc := range []struct {
		name  string
		flags []string
		err   string // non-empty: both paths must fail with this message
	}{
		{name: "highway", flags: []string{"-scenario", "highway", "-duration", "10s", "-cars", "8", "-seed", "3", "-replicas", "2"}},
		{name: "megahighway-medium", flags: []string{"-scenario", "megahighway", "-duration", "2s", "-cars", "60", "-length", "3000",
			"-medium", "-channels", "2", "-jam-every", "1s", "-jam-burst", "300ms", "-shards", "2"}},
		{name: "intersection-medium", flags: []string{"-scenario", "intersection", "-duration", "20s", "-medium"}},
		{name: "encounter", flags: []string{"-scenario", "encounter", "-geometry", "level-change", "-voice"}},
		{name: "experiment", flags: []string{"-scenario", "E1"}},
		{name: "seed-0", flags: []string{"-scenario", "highway", "-duration", "5s", "-cars", "5", "-seed", "0"}},
		{name: "negative-cars", flags: []string{"-scenario", "highway", "-duration", "5s", "-cars", "-5"}},
		{name: "zero-duration", flags: []string{"-scenario", "highway", "-duration", "0"}, err: `bad duration "0": zero`},
		{name: "loss-above-1", flags: []string{"-scenario", "megahighway", "-loss", "1.5"}, err: "bad loss 1.5: want [0,1]"},
		{name: "loss-nan", flags: []string{"-scenario", "megahighway", "-loss", "NaN"}, err: "bad loss NaN: want [0,1]"},
		{name: "length-nan", flags: []string{"-scenario", "megahighway", "-length", "NaN"}, err: "bad length NaN: want a finite number"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, form := range [][]string{nil, {"-json"}} {
				flags := append(append([]string{}, tc.flags...), form...)
				var local, remote strings.Builder
				lerr := run(flags, &local)
				rerr := run(append([]string{"-daemon", hs.URL}, flags...), &remote)
				if tc.err != "" {
					for _, err := range []error{lerr, rerr} {
						if err == nil || !strings.Contains(err.Error(), tc.err) {
							t.Fatalf("%v: err %v, want %q on both paths", flags, err, tc.err)
						}
					}
					continue
				}
				if lerr != nil || rerr != nil {
					t.Fatalf("%v: local err %v, daemon err %v", flags, lerr, rerr)
				}
				if local.String() != remote.String() {
					t.Fatalf("%v: daemon output differs from local:\nlocal:\n%s\ndaemon:\n%s", flags, local.String(), remote.String())
				}
			}
		})
	}

	// A second submission hits the cache; rendered output must not change.
	flags := []string{"-daemon", hs.URL, "-scenario", "highway", "-duration", "10s", "-cars", "8", "-seed", "3", "-replicas", "2"}
	before := srv.Stats()
	var first, cached strings.Builder
	if err := run(flags, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(flags, &cached); err != nil {
		t.Fatal(err)
	}
	if cached.String() != first.String() {
		t.Fatalf("cached daemon output differs:\n%s", cached.String())
	}
	if st := srv.Stats(); st.CacheMisses != before.CacheMisses || st.CacheHits != before.CacheHits+2 {
		t.Fatalf("stats before %+v, after %+v", before, st)
	}
}

// -record then -replay round-trips byte-identically through the CLI,
// including a mid-run -window range served from a checkpoint and a
// cross-width replay; -record flag misuse is rejected up front.
func TestRecordReplayCLI(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.ktr")
	var sb strings.Builder
	if err := run([]string{"-scenario", "highway", "-duration", "8s", "-cars", "10",
		"-seed", "7", "-shards", "2", "-record", trace, "-checkpoint-every", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-replay", trace},
		{"-replay", trace, "-window", "25:60"},
		{"-replay", trace, "-window", "41:80", "-shards", "4"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "replay OK") {
			t.Fatalf("%v output:\n%s", args, out.String())
		}
	}
	for _, args := range [][]string{
		{"-replay", trace, "-window", "banana"},
		{"-replay", trace, "-window", "60:2000"},
		{"-scenario", "encounter", "-record", trace},
		{"-scenario", "highway", "-record", trace, "-replicas", "2"},
		{"-scenario", "highway", "-record", trace, "-fault-rate", "1"},
		{"-scenario", "highway", "-record", trace, "-daemon", "http://127.0.0.1:1"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestDaemonModeSurfacesAPIErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-daemon", "http://127.0.0.1:1", "-scenario", "highway"}, &sb); err == nil {
		t.Fatal("unreachable daemon accepted")
	}
}
