package wireless

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

// outcomeLog collects per-receiver outcomes as comparable strings.
type outcomeLog struct{ entries []string }

func (l *outcomeLog) deliver(tx *ShardedTx, to NodeID) {
	l.entries = append(l.entries, fmt.Sprintf("%d@%d->%d ok", tx.From, tx.Start, to))
}

func (l *outcomeLog) drop(tx *ShardedTx, to NodeID, r DropReason) {
	l.entries = append(l.entries, fmt.Sprintf("%d@%d->%d %s", tx.From, tx.Start, to, r))
}

func (l *outcomeLog) String() string { return strings.Join(l.entries, "\n") }

// resolveAll runs Resolve visiting every node in nodes (id order) at its
// position.
func resolveAll(m *ShardedMedium, nodes map[NodeID]Position, log *outcomeLog) {
	ids := make([]NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // tiny insertion sort keeps the test dependency-free
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	m.Resolve(func(tx *ShardedTx, visit func(NodeID, Position)) {
		for _, id := range ids {
			visit(id, nodes[id])
		}
	}, log.deliver, log.drop)
}

func TestShardedDeliveryAndRange(t *testing.T) {
	m := NewShardedMedium(1, DefaultShardedConfig())
	nodes := map[NodeID]Position{0: {}, 1: {X: 200}, 2: {X: 500}}
	m.Queue(ShardedTx{From: 0, Start: 100})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	want := "0@100->1 ok\n0@100->2 range"
	if log.String() != want {
		t.Fatalf("outcomes:\n%s\nwant:\n%s", log.String(), want)
	}
	st := m.Stats()
	if st.Queued != 1 || st.Sent != 1 || st.Delivered != 1 || st.OutOfRange != 1 {
		t.Fatalf("stats %+v", st)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending %d after resolve", m.Pending())
	}
}

func TestShardedOverlapCollisionAndHiddenTerminal(t *testing.T) {
	// Senders 0 and 3 overlap in time. Receiver 1 hears both -> collision
	// on each frame. Receiver 2 is only in range of sender 3 -> the
	// overlap is hidden from it and 3's frame gets through.
	m := NewShardedMedium(1, DefaultShardedConfig())
	nodes := map[NodeID]Position{0: {}, 1: {X: 250}, 2: {X: 550}, 3: {X: 300}}
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100})
	m.Queue(ShardedTx{From: 3, Pos: nodes[3], Start: 300})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	want := strings.Join([]string{
		"0@100->1 collision",
		"0@100->2 range",
		"0@100->3 collision",
		"3@300->0 collision",
		"3@300->1 collision",
		"3@300->2 ok",
	}, "\n")
	if log.String() != want {
		t.Fatalf("outcomes:\n%s\nwant:\n%s", log.String(), want)
	}
}

func TestShardedSequentialFramesDoNotCollide(t *testing.T) {
	m := NewShardedMedium(1, DefaultShardedConfig())
	air := m.Config().Airtime
	nodes := map[NodeID]Position{0: {}, 1: {X: 100}, 2: {X: 200}}
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100})
	m.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: 100 + air}) // back-to-back, no overlap
	var log outcomeLog
	resolveAll(m, nodes, &log)
	if strings.Contains(log.String(), "collision") {
		t.Fatalf("sequential frames collided:\n%s", log)
	}
	if st := m.Stats(); st.Delivered != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestShardedCarrierSenseDefersButSimultaneousCollides(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.CarrierSense = true
	m := NewShardedMedium(1, cfg)
	nodes := map[NodeID]Position{0: {}, 1: {X: 100}, 2: {X: 200}}
	// 2 starts mid-way through 0's frame: it hears the channel busy and
	// defers; 0's frame is delivered untouched.
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100})
	m.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: 200})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	want := strings.Join([]string{
		"2@200->2 busy",
		"0@100->1 ok",
		"0@100->2 ok",
	}, "\n")
	if log.String() != want {
		t.Fatalf("outcomes:\n%s\nwant:\n%s", log.String(), want)
	}
	if st := m.Stats(); st.Deferred != 1 || st.Sent != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Simultaneous starts sit inside the CSMA vulnerability window: both
	// transmit and collide at every common receiver.
	m2 := NewShardedMedium(1, cfg)
	m2.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100})
	m2.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: 100})
	var log2 outcomeLog
	resolveAll(m2, nodes, &log2)
	if st := m2.Stats(); st.Deferred != 0 || st.Collisions == 0 {
		t.Fatalf("simultaneous-start stats %+v\n%s", st, log2.String())
	}
}

func TestShardedJamWindows(t *testing.T) {
	m := NewShardedMedium(1, DefaultShardedConfig())
	air := m.Config().Airtime
	nodes := map[NodeID]Position{0: {}, 1: {X: 100}}
	m.Jam(0, 1000, 10*air)
	if !m.Jammed(0, 1000) || m.Jammed(0, 1000+10*air) {
		t.Fatal("jam interval wrong")
	}
	// Extending never shortens.
	m.Jam(0, 2000, air)
	if !m.Jammed(0, 1000+9*air) {
		t.Fatal("jam shortened by a smaller extension")
	}
	// A frame overlapping the burst is dropped; one after it is fine.
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 1000})
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 1000 + 20*air})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	want := "0@1000->1 jam\n0@9000->1 ok"
	if log.String() != want {
		t.Fatalf("outcomes:\n%s\nwant:\n%s", log.String(), want)
	}
	// JamAll covers every channel.
	cfg := DefaultShardedConfig()
	cfg.Channels = 3
	m2 := NewShardedMedium(1, cfg)
	m2.JamAll(0, 100)
	for c := 0; c < 3; c++ {
		if !m2.Jammed(c, 50) {
			t.Fatalf("channel %d not jammed by JamAll", c)
		}
	}
}

func TestShardedChannelsPartitionAirtimeNotAudience(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Channels = 2
	m := NewShardedMedium(1, cfg)
	nodes := map[NodeID]Position{0: {}, 1: {X: 100}, 2: {X: 200}}
	// Same slot, different channels: no collision, and the wideband
	// receiver hears both frames.
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100, Channel: 0})
	m.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: 100, Channel: 1})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	if strings.Contains(log.String(), "collision") {
		t.Fatalf("orthogonal channels collided:\n%s", log)
	}
	if st := m.Stats(); st.Delivered != 4 {
		t.Fatalf("stats %+v", st)
	}
	// Jam on channel 0 leaves channel 1 alive.
	m.Jam(0, 1000, 1000)
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 1200, Channel: 0})
	m.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: 1200, Channel: 1})
	var log2 outcomeLog
	resolveAll(m, nodes, &log2)
	if !strings.Contains(log2.String(), "0@1200->1 jam") || !strings.Contains(log2.String(), "2@1200->1 ok") {
		t.Fatalf("per-channel jam wrong:\n%s", log2)
	}
}

func TestShardedLossFromPerReceiverStreams(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.LossProb = 0.5
	run := func(seed int64) string {
		m := NewShardedMedium(seed, cfg)
		nodes := map[NodeID]Position{0: {}, 1: {X: 100}, 2: {X: 200}}
		var log outcomeLog
		for i := 0; i < 20; i++ {
			m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: sim.Time(1 + i*1000)})
			resolveAll(m, nodes, &log)
		}
		return log.String()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatal("same seed produced different loss draws")
	}
	if run(8) == a {
		t.Fatal("different seeds produced identical loss draws")
	}
	if !strings.Contains(a, "loss") || !strings.Contains(a, "ok") {
		t.Fatalf("p=0.5 produced a degenerate outcome mix:\n%s", a)
	}
}

func TestShardedRingDistance(t *testing.T) {
	// On a 2000 m ring, 100 and 1900 are 200 m apart across the wrap
	// seam (1800 m on the plane, far beyond the 601 m near-list cut), and
	// 1990 is 110 m from 100 and 90 m from 1900.
	cfg := DefaultShardedConfig()
	cfg.Ring = 2000
	m := NewShardedMedium(1, cfg)
	nodes := map[NodeID]Position{0: {X: 100}, 1: {X: 1900}, 2: {X: 1990}, 3: {X: 1000}}
	m.Queue(ShardedTx{From: 0, Pos: nodes[0], Start: 100})
	m.Queue(ShardedTx{From: 1, Pos: nodes[1], Start: 200}) // overlaps 0's airtime
	m.Queue(ShardedTx{From: 2, Pos: nodes[2], Start: sim.Millisecond})
	var log outcomeLog
	resolveAll(m, nodes, &log)
	want := strings.Join([]string{
		"0@100->1 collision",
		"0@100->2 collision",
		"0@100->3 range",
		"1@200->0 collision",
		"1@200->2 collision",
		"1@200->3 range",
		"2@1000->0 ok",
		"2@1000->1 ok",
		"2@1000->3 range",
	}, "\n")
	if log.String() != want {
		t.Fatalf("ring metric ignored across the seam:\n%s\nwant:\n%s", log.String(), want)
	}
}

func TestShardedQueueUnknownChannelPanics(t *testing.T) {
	m := NewShardedMedium(1, DefaultShardedConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("queueing on a nonexistent channel did not panic")
		}
	}()
	m.Queue(ShardedTx{From: 0, Channel: 3})
}

// TestShardedMediumMatchesLegacyMedium is the satellite property test: at
// width 1 the sharded medium must reproduce the legacy kernel-driven
// Medium's delivery/collision decisions event-for-event on the same frame
// schedule — same outcomes, same (frame, receiver) order. Loss stays off:
// the legacy medium draws loss from the kernel rng, which is exactly the
// interleaving dependence the sharded medium exists to remove.
func TestShardedMediumMatchesLegacyMedium(t *testing.T) {
	positions := []Position{{X: 0}, {X: 150}, {X: 290}, {X: 310}, {X: 600}, {X: 620}}
	type txSpec struct {
		at     sim.Time
		sender NodeID
	}
	air := 400 * sim.Microsecond
	// Frames grouped into the 5 ms windows the sharded side resolves at —
	// the worlds' discipline: a frame's airtime fits its window, jams are
	// injected at barriers, each window resolves at its closing edge.
	windows := [][]txSpec{{
		{at: 1 * sim.Millisecond, sender: 0},       // clean broadcast
		{at: 2 * sim.Millisecond, sender: 1},       // clean
		{at: 3 * sim.Millisecond, sender: 0},       // overlap pair...
		{at: 3*sim.Millisecond + air/2, sender: 3}, // ...collides where both audible
		{at: 4 * sim.Millisecond, sender: 4},       // far cluster, clean
	}, {
		{at: 5*sim.Millisecond + air/4, sender: 2}, // inside the first jam burst
		{at: 8 * sim.Millisecond, sender: 1},       // simultaneous pair...
		{at: 8 * sim.Millisecond, sender: 5},       // ...resolved in sender order
		{at: 9 * sim.Millisecond, sender: 3},       // back-to-back with next
		{at: 9*sim.Millisecond + air, sender: 2},   // touches, must not collide
	}, {
		{at: 10*sim.Millisecond + air, sender: 0}, // inside the second burst
	}}
	jamAt, jamFor := 10*sim.Millisecond, 2*sim.Millisecond
	firstJamAt := 5 * sim.Millisecond

	// Legacy: kernel-driven medium with radios attached. Outcomes are
	// logged as "(receiver, outcome)" pairs; each frame's completion emits
	// one pair per other radio in receiver-id order, and completions run
	// in (start, sender) order — the broadcasts are scheduled in that
	// order, so equal completion instants keep it — which is exactly the
	// sharded medium's resolution order. A flat sequence match is
	// therefore an event-for-event match.
	k := sim.NewKernel(1)
	lcfg := DefaultConfig()
	lcfg.Airtime = air
	legacy := NewMedium(k, lcfg)
	var legacyLog []string
	for i, p := range positions {
		r, err := legacy.Attach(NodeID(i), p)
		if err != nil {
			t.Fatal(err)
		}
		to := NodeID(i)
		r.OnReceive(func(Frame) {
			legacyLog = append(legacyLog, fmt.Sprintf("->%d ok", to))
		})
	}
	legacy.SetDropObserver(func(to NodeID, reason DropReason) {
		legacyLog = append(legacyLog, fmt.Sprintf("->%d %s", to, reason))
	})
	for _, window := range windows {
		// Windows arrive in time order; simultaneous frames are listed in
		// sender order, so completions match the sharded (start, sender)
		// resolution order.
		for _, spec := range window {
			spec := spec
			k.At(spec.at, func() { legacy.radios.get(spec.sender).Broadcast("b") })
		}
	}
	k.At(firstJamAt, func() { legacy.Jam(0, jamFor) })
	k.At(jamAt, func() { legacy.Jam(0, jamFor) })
	k.RunFor(20 * sim.Millisecond)

	// Sharded: the same frames queued window by window, with the jam
	// injections at the barriers between, exactly as the worlds drive it.
	scfg := DefaultShardedConfig()
	scfg.Airtime = air
	sm := NewShardedMedium(1, scfg)
	var shardedLog []string
	resolveWindow := func(specs []txSpec) {
		for _, spec := range specs {
			sm.Queue(ShardedTx{From: spec.sender, Pos: positions[spec.sender], Start: spec.at})
		}
		sm.Resolve(func(tx *ShardedTx, visit func(NodeID, Position)) {
			for i, p := range positions {
				visit(NodeID(i), p)
			}
		}, func(tx *ShardedTx, to NodeID) {
			shardedLog = append(shardedLog, fmt.Sprintf("->%d ok", to))
		}, func(tx *ShardedTx, to NodeID, r DropReason) {
			shardedLog = append(shardedLog, fmt.Sprintf("->%d %s", to, r))
		})
	}
	resolveWindow(windows[0])
	sm.Jam(0, firstJamAt, jamFor)
	resolveWindow(windows[1])
	sm.Jam(0, jamAt, jamFor)
	resolveWindow(windows[2])

	want := strings.Join(legacyLog, "\n")
	if got := strings.Join(shardedLog, "\n"); got != want {
		t.Fatalf("sharded medium diverged from the legacy medium:\nlegacy:\n%s\nsharded:\n%s", want, got)
	}
	// The schedule must actually exercise every decision class.
	for _, outcome := range []string{"ok", "collision", "jam", "range"} {
		if !strings.Contains(want, outcome) {
			t.Fatalf("schedule never produced a %q outcome:\n%s", outcome, want)
		}
	}
}

// A resolution whose visit pass is split over receiver partitions, run
// concurrently, decides every (frame, receiver) pair exactly as Resolve
// does: each receiver sees the same outcomes in the same order, the
// counts match, and so do the loss streams the receivers drew.
func TestShardedPartitionedVisitMatchesResolve(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.LossProb = 0.3
	cfg.Channels = 2
	cfg.CarrierSense = true
	const nodes = 24
	pos := make([]Position, nodes)
	rng := sim.NewStream(3, 0, 0)
	for i := range pos {
		pos[i] = Position{X: float64(rng.Intn(900))}
	}
	// frames[w] is window w's frame set, queued to both media.
	frames := make([][]ShardedTx, 20)
	for w := range frames {
		open := sim.Time(w) * 10 * sim.Millisecond
		for i := 0; i < nodes; i++ {
			frames[w] = append(frames[w], ShardedTx{
				From:    NodeID(i),
				Channel: i % cfg.Channels,
				Pos:     pos[i],
				Start:   open + sim.Time(rng.Intn(8000))*sim.Microsecond/2,
				Retry:   open + 9*sim.Millisecond,
			})
		}
	}
	queue := func(m *ShardedMedium, w int) {
		m.JamAll(sim.Time(w)*10*sim.Millisecond+3*sim.Millisecond, 400*sim.Microsecond)
		for _, tx := range frames[w] {
			m.Queue(tx)
		}
	}
	for _, parts := range []int{2, 3} {
		ref, split := NewShardedMedium(9, cfg), NewShardedMedium(9, cfg)
		split.Reserve(nodes)
		refLog := make([][]string, nodes)
		splitLog := make([][]string, nodes)
		logTo := func(logs [][]string) (func(*ShardedTx, NodeID), func(*ShardedTx, NodeID, DropReason)) {
			return func(tx *ShardedTx, to NodeID) {
					logs[to] = append(logs[to], fmt.Sprintf("%d@%d ok", tx.From, tx.Start))
				}, func(tx *ShardedTx, to NodeID, r DropReason) {
					if r != DropBusy {
						logs[to] = append(logs[to], fmt.Sprintf("%d@%d %s", tx.From, tx.Start, r))
					}
				}
		}
		refDeliver, refDrop := logTo(refLog)
		splitDeliver, splitDrop := logTo(splitLog)
		eachOf := func(part int) func(*ShardedTx, func(NodeID, Position)) {
			return func(tx *ShardedTx, visit func(NodeID, Position)) {
				for i := 0; i < nodes; i++ {
					if part < 0 || i%parts == part {
						visit(NodeID(i), pos[i])
					}
				}
			}
		}
		for w := range frames {
			queue(ref, w)
			queue(split, w)
			ref.Resolve(eachOf(-1), refDeliver, refDrop)
			split.Contend(parts, splitDrop)
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					split.Visit(p, eachOf(p), splitDeliver, splitDrop)
				}(p)
			}
			wg.Wait()
			split.Settle()
		}
		if ref.Stats() != split.Stats() {
			t.Fatalf("parts=%d: stats %+v, want %+v", parts, split.Stats(), ref.Stats())
		}
		if s := ref.Stats(); s.Losses == 0 || s.Collisions == 0 || s.Jammed == 0 || s.Delivered == 0 {
			t.Fatalf("degenerate outcome mix: %+v", s)
		}
		for id := range refLog {
			if got, want := strings.Join(splitLog[id], "\n"), strings.Join(refLog[id], "\n"); got != want {
				t.Fatalf("parts=%d receiver %d:\n%s\nwant:\n%s", parts, id, got, want)
			}
		}
		var ea, eb trace.Enc
		ref.EncodeState(&ea)
		split.EncodeState(&eb)
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			t.Fatalf("parts=%d: checkpoints differ: the receivers' loss streams drew differently", parts)
		}
	}
}
