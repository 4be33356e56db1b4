package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"karyon/internal/metrics"
	"karyon/internal/sim"
)

// kernelFunc adapts a function of a fresh event kernel, built from the
// replica seed, to Scenario.
type kernelFunc struct {
	name string
	fn   func(k *sim.Kernel) (*metrics.Result, error)
}

func (f kernelFunc) Name() string { return f.name }

func (f kernelFunc) Run(_ context.Context, seed int64, _ int) (*metrics.Result, error) {
	return f.fn(sim.NewKernel(seed))
}

// noisy is a scenario whose records depend on the kernel's rand stream and
// seed, so any cross-replica state sharing or ordering bug changes output.
func noisy() Scenario {
	return kernelFunc{
		name: "noisy",
		fn: func(k *sim.Kernel) (*metrics.Result, error) {
			res := metrics.NewResult("noisy")
			var sum float64
			k.Schedule(sim.Millisecond, func() {
				sum = k.Rand().Float64() * float64(k.Seed()%997)
			})
			k.RunFor(2 * sim.Millisecond)
			res.Record("case", "a").
				Val("sum", sum, metrics.F3).
				Int("events", int64(k.Executed()))
			return res, nil
		},
	}
}

func report(t *testing.T, parallel int) string {
	t.Helper()
	rep, err := Run(context.Background(), noisy(), Options{Seed: 11, Replicas: 16, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Summary.Table().String() + "\n" + string(js)
}

// The tentpole invariant: the same seed matrix produces byte-identical
// aggregated output (text and JSON) for every worker-pool width.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	serial := report(t, 1)
	for _, parallel := range []int{2, 4, 8, 32} {
		if got := report(t, parallel); got != serial {
			t.Fatalf("parallel=%d changed output:\nserial:\n%s\nparallel:\n%s", parallel, serial, got)
		}
	}
	if !strings.Contains(serial, "±") {
		t.Fatalf("aggregated output missing dispersion cells:\n%s", serial)
	}
}

func TestSeedMatrix(t *testing.T) {
	seeds := Seeds(5, 3)
	want := []int64{5, 5 + SeedStride, 5 + 2*SeedStride}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", seeds, want)
		}
	}
}

// A failing replica must surface as an error — never as a silent gap in
// the aggregate.
func TestReplicaErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	s := kernelFunc{
		name: "flaky",
		fn: func(k *sim.Kernel) (*metrics.Result, error) {
			if k.Seed() != 11 { // every replica after the first
				return nil, boom
			}
			return metrics.NewResult("flaky"), nil
		},
	}
	_, err := Run(context.Background(), s, Options{Seed: 11, Replicas: 4, Parallel: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if err == nil || !strings.Contains(err.Error(), "flaky") {
		t.Fatalf("error does not identify the scenario: %v", err)
	}
}

func TestPanickingReplicaSurfaces(t *testing.T) {
	s := kernelFunc{
		name: "panicky",
		fn: func(k *sim.Kernel) (*metrics.Result, error) {
			panic(fmt.Sprintf("seed %d", k.Seed()))
		},
	}
	_, err := Run(context.Background(), s, Options{Seed: 1, Replicas: 2, Parallel: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	// The typed PanicError survives the replica-identifying wrap, carrying
	// the goroutine stack callers need to debug a panic they did not host.
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not typed as PanicError: %v", err)
	}
	if pe.Stack == "" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("PanicError carries no stack: %q", pe.Stack)
	}
}

func TestNilResultIsAnError(t *testing.T) {
	s := kernelFunc{
		name: "empty",
		fn:   func(k *sim.Kernel) (*metrics.Result, error) { return nil, nil },
	}
	_, err := Run(context.Background(), s, Options{Replicas: 1})
	if err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestCancelledContextSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, noisy(), Options{Seed: 1, Replicas: 4, Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// shardableFunc is a test scenario that builds its own sharded kernel, so
// the failure paths of the window machinery can be driven from tests.
type shardableFunc struct {
	name string
	fn   func(ctx context.Context, sk *sim.ShardedKernel) (*metrics.Result, error)
}

func (s shardableFunc) Name() string { return s.name }

func (s shardableFunc) Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	sk, err := sim.NewShardedKernel(seed, shards, 10*sim.Millisecond)
	if err != nil {
		return nil, err
	}
	return s.fn(ctx, sk)
}

// The runner must run scenarios at the requested width, and the report
// must be byte-identical for every width.
func TestShardsDoNotChangeOutput(t *testing.T) {
	counting := shardableFunc{
		name: "counting",
		fn: func(ctx context.Context, sk *sim.ShardedKernel) (*metrics.Result, error) {
			// Every shard steps once a millisecond; each sends its step
			// count under its index, so the barrier sums in shard order.
			var sum int64
			sk.OnShardWindow(func(shard int, edge sim.Time) {
				s := sk.Shard(shard)
				n := int64(0)
				for at := edge - sk.Window() + sim.Millisecond; at <= edge; at += sim.Millisecond {
					s.Advance(at)
					n++
				}
				s.Send(int64(shard), func() { sum += n })
			})
			if err := sk.Run(ctx, 50*sim.Millisecond); err != nil {
				return nil, err
			}
			if want := uint64(50*sk.Shards() + 5*sk.Shards()); sk.Executed() != want {
				return nil, fmt.Errorf("executed %d, want %d", sk.Executed(), want)
			}
			res := metrics.NewResult("counting")
			// Per-shard step totals scale with the width, so report a
			// width-invariant value: steps per shard.
			res.Record().Int("steps per shard", sum/int64(sk.Shards()))
			return res, nil
		},
	}
	var want string
	for _, shards := range []int{1, 2, 4} {
		rep, err := Run(context.Background(), counting,
			Options{Seed: 3, Replicas: 3, Parallel: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(js)
		} else if string(js) != want {
			t.Fatalf("shards=%d changed report:\n%s\nvs\n%s", shards, js, want)
		}
	}
}

// A replica that panics inside a shard barrier (window hook or mailbox
// drain) must surface as an error — never a hang or a silent gap.
func TestShardBarrierPanicSurfaces(t *testing.T) {
	s := shardableFunc{
		name: "barrier-panic",
		fn: func(ctx context.Context, sk *sim.ShardedKernel) (*metrics.Result, error) {
			windows := 0
			sk.OnWindow(func(sim.Time) {
				if windows++; windows == 3 {
					panic("barrier boom")
				}
			})
			if err := sk.Run(ctx, sim.Second); err != nil {
				return nil, err
			}
			return metrics.NewResult("unreachable"), nil
		},
	}
	_, err := Run(context.Background(), s, Options{Seed: 1, Replicas: 2, Parallel: 2, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "barrier boom") {
		t.Fatalf("barrier panic not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "barrier-panic") {
		t.Fatalf("error does not identify the scenario: %v", err)
	}
}

// Cancellation mid-window must stop the sharded run at the next barrier
// and surface context.Canceled through the runner.
func TestShardCancellationMidWindowSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := shardableFunc{
		name: "cancel-mid-window",
		fn: func(ctx context.Context, sk *sim.ShardedKernel) (*metrics.Result, error) {
			// Cancel from inside a window, mid-run.
			sk.OnShardWindow(func(shard int, edge sim.Time) {
				if shard == 0 && edge == 30*sim.Millisecond {
					sk.Shard(shard).Advance(25 * sim.Millisecond)
					cancel()
				}
			})
			if err := sk.Run(ctx, sim.Second); err != nil {
				return nil, err
			}
			return metrics.NewResult("unreachable"), nil
		},
	}
	_, err := Run(ctx, s, Options{Seed: 1, Replicas: 1, Shards: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScenarioImplementations(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		name string
	}{
		{HighwayScenario{Duration: 5e9, Cars: 5, Mode: "adaptive"}, "highway"},
		{MegaHighwayScenario{Duration: 1e9, Cars: 40, Length: 2000}, "megahighway"},
		{IntersectionScenario{Duration: 10e9, VirtualBackup: true}, "intersection"},
		{EncounterScenario{Geometry: "same-direction", Collaborative: true}, "encounter"},
	} {
		if tc.sc.Name() != tc.name {
			t.Fatalf("Name() = %q, want %q", tc.sc.Name(), tc.name)
		}
		res, err := tc.sc.Run(context.Background(), 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Records) == 0 || len(res.Records[0].Values) == 0 {
			t.Fatalf("%s produced no measurements", tc.name)
		}
	}
	if _, err := (HighwayScenario{Duration: 1e9, Cars: 3, Mode: "bogus"}).Run(context.Background(), 1, 1); err == nil {
		t.Fatal("bogus highway mode accepted")
	}
	if _, err := (EncounterScenario{Geometry: "bogus"}).Run(context.Background(), 1, 1); err == nil {
		t.Fatal("bogus geometry accepted")
	}
}

// A sub-microsecond jam period truncates to zero virtual time; the jam
// scheduler must bail out instead of looping forever without advancing.
func TestSubMicrosecondJamPeriodDoesNotHang(t *testing.T) {
	sc := HighwayScenario{
		Duration: 50 * time.Millisecond, Cars: 3, Mode: "adaptive",
		JamEvery: 500 * time.Nanosecond, JamBurst: time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := sc.Run(context.Background(), 1, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sub-microsecond -jam-every hung the scenario")
	}
}

// Record is the one place that knows which scenarios record: the two
// highway-family scenarios take the recording, every other is refused,
// and a highway under a fault campaign is refused before a trace exists.
func TestRecordAttachesOnlyToHighways(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ktr")
	r := Recording{TracePath: path, CheckpointEvery: 10}
	if h, err := Record(HighwayScenario{}, r); err != nil || h.(HighwayScenario).Recording != r {
		t.Fatalf("highway: %+v, %v", h, err)
	}
	if m, err := Record(MegaHighwayScenario{}, r); err != nil || m.(MegaHighwayScenario).Recording != r {
		t.Fatalf("megahighway: %+v, %v", m, err)
	}
	for _, sc := range []Scenario{IntersectionScenario{}, EncounterScenario{}, noisy()} {
		if _, err := Record(sc, r); err == nil || !strings.Contains(err.Error(), sc.Name()) {
			t.Fatalf("%s: err %v, want a refusal naming the scenario", sc.Name(), err)
		}
	}
	sc := HighwayScenario{Duration: time.Second, Cars: 3, Mode: "adaptive", SensorFaultRate: 2, Recording: r}
	if _, err := sc.Run(context.Background(), 1, 1); err == nil || !strings.Contains(err.Error(), "fault campaign") {
		t.Fatalf("recording a fault campaign: err %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused recording left a trace file: %v", err)
	}
}
