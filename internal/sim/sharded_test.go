package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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

// stepEvery registers a step loop that advances every shard to each
// multiple of period inside the window, calling step on the shard's
// goroutine for each.
func stepEvery(sk *ShardedKernel, period Time, step func(s *Shard)) {
	sk.OnShardWindow(func(shard int, edge Time) {
		s := sk.Shard(shard)
		open := edge - sk.Window()
		for at := (open/period + 1) * period; at <= edge; at += period {
			s.Advance(at)
			step(s)
		}
	})
}

// Shards advance in lockstep: after Run, every shard rests at the horizon
// and every step inside the windows has run.
func TestShardedKernelLockstep(t *testing.T) {
	sk, err := NewShardedKernel(1, 4, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var fired [4]int
	stepEvery(sk, 3*Millisecond, func(s *Shard) { fired[s.Index()]++ })
	if err := sk.Run(context.Background(), 30*Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := sk.Shard(i).Now(); got != 30*Millisecond {
			t.Fatalf("shard %d at %v, want 30ms", i, got)
		}
		if fired[i] != 10 {
			t.Fatalf("shard %d fired %d, want 10", i, fired[i])
		}
	}
	if sk.Now() != 30*Millisecond || sk.Executed() != 40 {
		t.Fatalf("Now = %v, Executed = %d", sk.Now(), sk.Executed())
	}
}

// Advance moves the shard clock forward and counts one step into
// Executed; a clock that would move back panics, and inside a window the
// panic fails the Run.
func TestShardAdvance(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := sk.Shard(1)
	s.Advance(3 * Millisecond)
	s.Advance(3 * Millisecond)
	if s.Now() != 3*Millisecond || sk.Executed() != 2 {
		t.Fatalf("after two steps: Now = %v, Executed = %d", s.Now(), sk.Executed())
	}
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "moved back") {
				t.Fatalf("backward Advance: recovered %v", p)
			}
		}()
		s.Advance(2 * Millisecond)
	}()
	if s.Now() != 3*Millisecond || sk.Executed() != 2 {
		t.Fatalf("a refused step moved the clock or counted: Now = %v, Executed = %d", s.Now(), sk.Executed())
	}

	sk2, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sk2.OnShardWindow(func(shard int, edge Time) {
		if shard == 1 && edge == 20*Millisecond {
			sk2.Shard(shard).Advance(edge - 15*Millisecond)
		}
	})
	err = sk2.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "moved back") {
		t.Fatalf("backward step in a window: err = %v", err)
	}
}

// Warp moves every clock to the target edge and keeps Executed, so a run
// after the warp counts each step once.
func TestShardedKernelWarp(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var fired []Time
	stepEvery(sk, 10*Millisecond, func(s *Shard) {
		if s.Index() == 0 {
			fired = append(fired, s.Now())
		}
	})
	if err := sk.Run(context.Background(), 20*Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sk.Warp(15 * Millisecond); err == nil {
		t.Fatal("off-grid warp target accepted")
	}
	if err := sk.Warp(10 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if sk.Now() != 10*Millisecond || sk.Shard(0).Now() != 10*Millisecond || sk.Shard(1).Now() != 10*Millisecond {
		t.Fatalf("warp clocks: sk=%v shard0=%v shard1=%v", sk.Now(), sk.Shard(0).Now(), sk.Shard(1).Now())
	}
	if sk.Executed() != 4 {
		t.Fatalf("warp changed Executed: %d, want 4", sk.Executed())
	}
	// Re-running steps the windows after the target again.
	if err := sk.Run(context.Background(), 40*Millisecond); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[10ms 20ms 20ms 30ms 40ms]" || sk.Executed() != 10 {
		t.Fatalf("after warp: fired=%v executed=%d", fired, sk.Executed())
	}
}

// Executed sums the shards' Advance counts; an Advance to the current
// instant counts an event without moving the clock.
func TestShardedKernelExecutedCount(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sk.OnShardWindow(func(shard int, edge Time) {
		if shard == 0 {
			s := sk.Shard(shard)
			s.Advance(edge - 9*Millisecond)
			s.Advance(s.Now())
			if s.Now() != edge-9*Millisecond {
				t.Errorf("same-instant Advance moved the clock to %v", s.Now())
			}
		}
	})
	if err := sk.Run(context.Background(), 10*Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sk.Executed(); got != 2 {
		t.Fatalf("Executed = %d, want 2 (one step + one same-instant event)", got)
	}
}

// Run rounds its horizon up to the window grid, so barriers only ever
// fall on multiples of the window.
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
	if want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}; !slices.Equal(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	edges = edges[:0]
	if err := sk.Run(context.Background(), 50*Millisecond); err != nil {
		t.Fatal(err)
	}
	if cont := []Time{40 * Millisecond, 50 * Millisecond}; !slices.Equal(edges, cont) {
		t.Fatalf("continuation edges = %v, want %v", edges, cont)
	}
}

// A panic inside a shard's hook must surface as an error identifying the
// shard, and the kernel must stay poisoned.
func TestShardedKernelShardPanicSurfaces(t *testing.T) {
	sk, err := NewShardedKernel(1, 3, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stepEvery(sk, 10*Millisecond, func(s *Shard) {
		if s.Index() == 2 {
			panic("boom")
		}
	})
	err = sk.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if err2 := sk.Run(context.Background(), 60*Millisecond); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("poisoned kernel re-ran: %v", err2)
	}
}

// A panic inside the barrier (a window hook) must surface too — this is
// the "replica panics inside a shard barrier" failure path.
func TestShardedKernelBarrierPanicSurfaces(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stepEvery(sk, 10*Millisecond, func(*Shard) {})
	sk.OnWindow(func(edge Time) {
		if edge == 20*Millisecond {
			panic("barrier boom")
		}
	})
	err = sk.Run(context.Background(), 30*Millisecond)
	if err == nil || !strings.Contains(err.Error(), "window hook") || !strings.Contains(err.Error(), "barrier boom") {
		t.Fatalf("err = %v", err)
	}
	if sk.Now() != 20*Millisecond {
		t.Fatalf("failed barrier at %v, want 20ms", sk.Now())
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

// OnShardWindow hooks run on every shard for every window, in
// registration order, strictly before the barrier's OnWindow hooks; once
// they return the shard's clock rests at the edge.
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
	sk.OnShardWindow(func(shard int, edge Time) {
		sk.Shard(shard).Advance(edge - 5*Millisecond)
		stepped[shard] = sk.Shard(shard).Now()
	})
	sk.OnShardWindow(func(shard int, edge Time) {
		if stepped[shard] != edge-5*Millisecond {
			t.Errorf("shard %d second hook at %v ran before the step loop", shard, edge)
		}
		edges[shard] = append(edges[shard], edge)
	})
	sk.OnWindow(func(edge Time) {
		for s := 0; s < shards; s++ {
			if n := len(edges[s]); n == 0 || edges[s][n-1] != edge {
				t.Errorf("barrier at %v before shard %d's phase hook", edge, s)
			}
			if now := sk.Shard(s).Now(); now != edge {
				t.Errorf("barrier at %v with shard %d's clock at %v", edge, s, now)
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

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// A barrier stage runs fn exactly once per shard per call: shard 0 inline
// on the coordinating goroutine, the others on the Run's shard workers.
func TestStageRunsOncePerShard(t *testing.T) {
	for _, shards := range []int{1, 3} {
		sk, err := NewShardedKernel(1, shards, 10*Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		calls := make([]int, shards)
		ran := make([]string, shards)
		var hook string
		stage := func(shard int) {
			calls[shard]++
			ran[shard] = goroutineID()
		}
		sk.OnWindow(func(Time) {
			hook = goroutineID()
			if err := sk.Stage(stage); err != nil {
				t.Error(err)
			}
			if err := sk.Stage(stage); err != nil {
				t.Error(err)
			}
			for s := range ran {
				if inline := ran[s] == hook; inline != (s == 0) {
					t.Errorf("shards=%d: shard %d ran inline=%v", shards, s, inline)
				}
			}
		})
		if err := sk.Run(context.Background(), 30*Millisecond); err != nil {
			t.Fatal(err)
		}
		for s, n := range calls {
			if n != 6 {
				t.Fatalf("shards=%d: shard %d ran %d stage calls over 3 windows x 2, want 6", shards, s, n)
			}
		}
		// Outside Run no workers are up: every call runs inline, in
		// shard order.
		var order []int
		if err := sk.Stage(func(shard int) { order = append(order, shard) }); err != nil {
			t.Fatal(err)
		}
		if len(order) != shards || order[0] != 0 || order[shards-1] != shards-1 {
			t.Fatalf("shards=%d: stage outside Run ran %v", shards, order)
		}
	}
}

// A panic in a barrier stage is a window error naming the stage and the
// shard; it stops the Run at that barrier and stays latched.
func TestStagePanicSurfaces(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sk, err := NewShardedKernel(1, shards, 10*Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		bad := shards - 1
		var after []Time
		sk.OnWindow(func(edge Time) {
			if edge == 20*Millisecond {
				_ = sk.Stage(func(shard int) {
					if shard == bad {
						panic("stage boom")
					}
				})
			}
		})
		sk.OnWindow(func(edge Time) { after = append(after, edge) })
		err = sk.Run(context.Background(), 50*Millisecond)
		want := fmt.Sprintf("barrier stage on shard %d", bad)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "stage boom") {
			t.Fatalf("shards=%d: err = %v, want %q", shards, err, want)
		}
		if sk.Now() != 20*Millisecond || len(after) != 1 {
			t.Fatalf("shards=%d: run went on past the failed stage (now %v, later hooks at %v)", shards, sk.Now(), after)
		}
		if err2 := sk.Run(context.Background(), 60*Millisecond); err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("shards=%d: failed kernel re-ran: %v", shards, err2)
		}
		if err3 := sk.Stage(func(int) {}); err3 == nil || err3.Error() != err.Error() {
			t.Fatalf("shards=%d: failed kernel ran a stage: %v", shards, err3)
		}
	}
}

// Dispatching a barrier stage allocates nothing.
func TestStageAllocs(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var counts [2]int
	stage := func(shard int) { counts[shard]++ }
	per := -1.0
	sk.OnWindow(func(edge Time) {
		if edge == 20*Millisecond {
			per = testing.AllocsPerRun(100, func() {
				if err := sk.Stage(stage); err != nil {
					t.Error(err)
				}
			})
		}
	})
	if err := sk.Run(context.Background(), 30*Millisecond); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Fatalf("Stage: %.1f allocs per call, want 0", per)
	}
	if counts[0] != counts[1] || counts[1] < 100 {
		t.Fatalf("stage calls per shard = %v", counts)
	}
}
