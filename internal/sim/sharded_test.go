package sim

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestShardedKernelValidation(t *testing.T) {
	if _, err := NewShardedKernel(1, 0, Millisecond); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewShardedKernel(1, 2, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	sk, err := NewShardedKernel(7, 3, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Shards() != 3 || sk.Seed() != 7 || sk.Window() != Millisecond {
		t.Fatalf("sk = %+v", sk)
	}
}

func TestSplitSeedStreamsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for stream := int64(0); stream < 100; stream++ {
			s := SplitSeed(seed, stream)
			if seen[s] {
				t.Fatalf("SplitSeed(%d,%d) collides", seed, stream)
			}
			seen[s] = true
			if s != SplitSeed(seed, stream) {
				t.Fatal("SplitSeed not deterministic")
			}
		}
	}
}

// Shards advance in lockstep: after Run, every shard kernel rests at the
// horizon and events scheduled inside windows have executed.
func TestShardedKernelLockstep(t *testing.T) {
	sk, err := NewShardedKernel(1, 4, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var fired [4]int
	for i := 0; i < 4; i++ {
		i := i
		k := sk.Shard(i).Kernel()
		if _, err := k.Every(3*Millisecond, func() { fired[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := sk.Run(context.Background(), 30*Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := sk.Shard(i).Kernel().Now(); got != 30*Millisecond {
			t.Fatalf("shard %d at %v, want 30ms", i, got)
		}
		if fired[i] != 10 {
			t.Fatalf("shard %d fired %d, want 10", i, fired[i])
		}
	}
	if sk.Now() != 30*Millisecond {
		t.Fatalf("Now = %v", sk.Now())
	}
}

// Cross-shard messages drain at window edges in (at, sender) order,
// independent of which shard sent them or in which order shards ran.
func TestShardedKernelMailboxOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		sk, err := NewShardedKernel(1, 3, 10*Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < 3; i++ {
			s := sk.Shard(i)
			sender := int64(i)
			s.Kernel().Schedule(Millisecond*Time(i+1), func() {
				edge := sk.NextEdge(s.Kernel().Now())
				s.Send((s.Index()+1)%3, edge, sender, func() {
					got = append(got, fmt.Sprintf("m%d", sender))
				})
			})
		}
		if err := sk.Run(context.Background(), 10*Millisecond); err != nil {
			t.Fatal(err)
		}
		if want := "m0,m1,m2"; strings.Join(got, ",") != want {
			t.Fatalf("drain order = %v, want %s", got, want)
		}
	}
}

// A message with an instant beyond the drain edge is scheduled onto the
// destination shard's kernel and executes in the correct later window.
func TestShardedKernelFutureMessage(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var at Time
	src := sk.Shard(0)
	src.Kernel().Schedule(Millisecond, func() {
		src.Send(1, 25*Millisecond, 0, func() { at = sk.Shard(1).Kernel().Now() })
	})
	if err := sk.Run(context.Background(), 40*Millisecond); err != nil {
		t.Fatal(err)
	}
	if at != 25*Millisecond {
		t.Fatalf("future message ran at %v, want 25ms", at)
	}
	if sk.Clamped() != 0 {
		t.Fatalf("clamped = %d", sk.Clamped())
	}
}

// Messages violating the conservative contract are clamped to the drain
// edge and counted — a nonzero count flags a broken lookahead claim.
func TestShardedKernelClampsContractViolations(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var ranAt Time
	src := sk.Shard(0)
	src.Kernel().Schedule(7*Millisecond, func() {
		src.Send(1, 8*Millisecond, 0, func() { ranAt = sk.Now() })
	})
	if err := sk.Run(context.Background(), 20*Millisecond); err != nil {
		t.Fatal(err)
	}
	if sk.Clamped() != 1 {
		t.Fatalf("clamped = %d, want 1", sk.Clamped())
	}
	if ranAt != 10*Millisecond { // executed during the 10ms barrier
		t.Fatalf("clamped message observed Now = %v", ranAt)
	}
}

// Warp empties every shard's queue and outbox, moves every clock to the
// target edge, and keeps Executed, so a re-seeded run after the warp
// counts each event once.
func TestShardedKernelWarp(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	k0, k1 := sk.Shard(0).Kernel(), sk.Shard(1).Kernel()
	k0.At(5*Millisecond, func() { fired = append(fired, 1) })
	k0.At(25*Millisecond, func() { fired = append(fired, 2) })
	k1.At(35*Millisecond, func() { fired = append(fired, 3) })
	if err := sk.Run(context.Background(), 20*Millisecond); err != nil {
		t.Fatal(err)
	}
	sk.Shard(1).Send(0, 20*Millisecond, 0, func() { fired = append(fired, 4) })
	if err := sk.Warp(15 * Millisecond); err == nil {
		t.Fatal("off-grid warp target accepted")
	}
	if err := sk.Warp(10 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if sk.Now() != 10*Millisecond || k0.Now() != 10*Millisecond || k1.Now() != 10*Millisecond {
		t.Fatalf("warp clocks: sk=%v shard0=%v shard1=%v", sk.Now(), k0.Now(), k1.Now())
	}
	if k0.Pending() != 0 || k1.Pending() != 0 {
		t.Fatalf("warp left events queued: %d, %d", k0.Pending(), k1.Pending())
	}
	if sk.Executed() != 1 {
		t.Fatalf("warp changed Executed: %d, want 1", sk.Executed())
	}
	// Re-seeding and re-running executes only the new event: the queued
	// events and the outbox message were discarded.
	k0.At(15*Millisecond, func() { fired = append(fired, 5) })
	if err := sk.Run(context.Background(), 40*Millisecond); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[1 5]" || sk.Executed() != 2 {
		t.Fatalf("after warp: fired=%v executed=%d", fired, sk.Executed())
	}
}

// Executed sums shard kernels plus barrier-drained messages.
func TestShardedKernelExecutedCount(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	src := sk.Shard(0)
	src.Kernel().Schedule(Millisecond, func() {
		src.Send(1, 10*Millisecond, 0, func() {})
	})
	if err := sk.Run(context.Background(), 10*Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sk.Executed(); got != 2 {
		t.Fatalf("Executed = %d, want 2 (one event + one drained message)", got)
	}
}

func TestShardedKernelWindowHooks(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var edges []Time
	sk.OnWindow(func(edge Time) { edges = append(edges, edge) })
	if err := sk.Run(context.Background(), 25*Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Millisecond, 20 * Millisecond, 25 * Millisecond}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
	// A continuation after an off-grid horizon re-aligns barriers to the
	// window grid, so NextEdge-based delivery instants stay conservative.
	edges = edges[:0]
	if err := sk.Run(context.Background(), 50*Millisecond); err != nil {
		t.Fatal(err)
	}
	cont := []Time{30 * Millisecond, 40 * Millisecond, 50 * Millisecond}
	if len(edges) != len(cont) {
		t.Fatalf("continuation edges = %v, want %v", edges, cont)
	}
	for i := range cont {
		if edges[i] != cont[i] {
			t.Fatalf("continuation edges = %v, want %v", edges, cont)
		}
	}
}

// A panic inside a shard's event must surface as an error identifying the
// shard, and the kernel must stay poisoned.
func TestShardedKernelShardPanicSurfaces(t *testing.T) {
	sk, err := NewShardedKernel(1, 3, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sk.Shard(2).Kernel().Schedule(Millisecond, func() { panic("boom") })
	err = sk.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if err2 := sk.Run(context.Background(), 60*Millisecond); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("poisoned kernel re-ran: %v", err2)
	}
}

// A panic inside the barrier (mailbox drain or window hook) must surface
// too — this is the "replica panics inside a shard barrier" failure path.
func TestShardedKernelBarrierPanicSurfaces(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	src := sk.Shard(0)
	src.Kernel().Schedule(Millisecond, func() {
		src.Send(1, 10*Millisecond, 0, func() { panic("mailbox boom") })
	})
	err = sk.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "mailbox drain") {
		t.Fatalf("err = %v", err)
	}

	sk2, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sk2.OnWindow(func(Time) { panic("hook boom") })
	err = sk2.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "window hook") {
		t.Fatalf("err = %v", err)
	}
}

// Cancellation mid-window surfaces as an error at the next barrier — never
// a hang, never a silent partial run.
func TestShardedKernelCancellation(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var windows atomic.Int64
	sk.OnWindow(func(Time) {
		if windows.Add(1) == 2 {
			cancel()
		}
	})
	err = sk.Run(ctx, Second)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v", err)
	}
	if got := sk.Now(); got != 20*Millisecond {
		t.Fatalf("cancelled at %v, want 20ms", got)
	}
	if err2 := sk.Run(context.Background(), Second); err2 == nil {
		t.Fatal("cancelled kernel re-ran")
	}
}

// OnShardWindow hooks run on every shard for every window, after the
// shard's events have reached the edge and strictly before the barrier's
// mailbox drain and OnWindow hooks.
func TestOnShardWindowRunsPerShardBeforeBarrier(t *testing.T) {
	const shards = 3
	sk, err := NewShardedKernel(1, shards, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Each shard appends to its own slot (shard-owned state, no locks);
	// the barrier hook checks every shard reached this edge.
	edges := make([][]Time, shards)
	stepped := make([]Time, shards)
	for i := 0; i < shards; i++ {
		i := i
		sk.Shard(i).Kernel().At(5*Millisecond, func() { stepped[i] = 5 * Millisecond })
	}
	sk.OnShardWindow(func(shard int, edge Time) {
		if sk.Shard(shard).Kernel().Now() != edge {
			t.Errorf("shard %d hook at kernel time %v, want %v", shard, sk.Shard(shard).Kernel().Now(), edge)
		}
		edges[shard] = append(edges[shard], edge)
	})
	sk.OnWindow(func(edge Time) {
		for s := 0; s < shards; s++ {
			if n := len(edges[s]); n == 0 || edges[s][n-1] != edge {
				t.Errorf("barrier at %v before shard %d's phase hook", edge, s)
			}
		}
	})
	if err := sk.Run(context.Background(), 30*Millisecond); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if len(edges[s]) != 3 {
			t.Fatalf("shard %d ran %d phase hooks, want 3", s, len(edges[s]))
		}
		if stepped[s] != 5*Millisecond {
			t.Fatalf("shard %d event did not run before its phase hook", s)
		}
		for w, e := range edges[s] {
			if want := Time(w+1) * 10 * Millisecond; e != want {
				t.Fatalf("shard %d window %d edge %v, want %v", s, w, e, want)
			}
		}
	}
}

// A panicking per-shard phase hook surfaces as that shard's window error.
func TestOnShardWindowPanicSurfaces(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sk.OnShardWindow(func(shard int, _ Time) {
		if shard == 1 {
			panic("phase boom")
		}
	})
	err = sk.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v", err)
	}
}
