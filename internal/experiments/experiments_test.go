package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Anchor == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for i := 1; i <= 16; i++ {
		id := "E" + itoa(i)
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
	if !seen["E-MAC-S"] {
		t.Fatal("missing E-MAC-S")
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return "1" + string(rune('0'+i-10))
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("phantom experiment found")
	}
}

// Each experiment must produce a non-trivial structured result
// deterministically. Under -short the reduced-fidelity configuration runs
// (seconds, not minutes) so every harness still executes end-to-end; the
// default mode keeps full fidelity and doubles as the repo's integration
// test across all subsystems.
func TestExperimentsRunAndAreDeterministic(t *testing.T) {
	short := testing.Short()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 1, Short: short}
			res1 := e.Run(cfg)
			out1 := res1.Table().String()
			if len(out1) == 0 || !strings.Contains(out1, e.ID) {
				t.Fatalf("%s produced unusable output:\n%s", e.ID, out1)
			}
			if len(res1.Records) == 0 {
				t.Fatalf("%s produced no records", e.ID)
			}
			lines := strings.Split(strings.TrimSpace(out1), "\n")
			if len(lines) < 4 {
				t.Fatalf("%s table too small:\n%s", e.ID, out1)
			}
			out2 := e.Run(cfg).Table().String()
			if out1 != out2 {
				t.Fatalf("%s is nondeterministic for the same seed:\nfirst:\n%s\nsecond:\n%s",
					e.ID, out1, out2)
			}
		})
	}
}

// The Harnessed adapter must hand the replica seed through to the
// experiment so a harness replica equals a direct run.
func TestHarnessedAdapterMatchesDirectRun(t *testing.T) {
	e, ok := ByID("E3")
	if !ok {
		t.Fatal("E3 missing")
	}
	h := Harnessed{Exp: e, Short: true}
	if h.Name() != "E3" {
		t.Fatalf("Name() = %q", h.Name())
	}
	direct := e.Run(Config{Seed: 7, Short: true}).Table().String()
	viaHarness, err := h.Run(context.Background(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := viaHarness.Table().String(); got != direct {
		t.Fatalf("adapter diverges from direct run:\nadapter:\n%s\ndirect:\n%s", got, direct)
	}
}
