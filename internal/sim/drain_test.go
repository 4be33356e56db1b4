package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sentMsg is one Send as the test saw it, in the sending shard's order.
type sentMsg struct {
	dst    int
	at     Time
	sender int64
	label  string
}

// oldDrainOrder is the drain order before each shard sorted its own
// outbox: the outboxes concatenated in shard order, then stable-sorted by
// (at, sender).
func oldDrainOrder(outboxes [][]sentMsg) []sentMsg {
	var all []sentMsg
	for _, o := range outboxes {
		all = append(all, o...)
	}
	slices.SortStableFunc(all, cmpSent)
	return all
}

// cmpSent orders sent messages by (at, sender), the drain key.
func cmpSent(a, b sentMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.sender, b.sender)
}

// drainKeys is how a TestDrainMatchesStableSort trial keys its messages.
type drainKeys int

const (
	// keysRandom draws every message's instant and sender at random.
	keysRandom drainKeys = iota
	// keysSorted keys each message by its send instant's offset in the
	// window, all due at the edge, as a model keying by step rank does:
	// every outbox arrives sorted and the shards skip their sort.
	keysSorted
	// keysOneRun is keysSorted except for the messages sent in one stretch
	// of each window, whose keys drop below their predecessors': one run
	// out of order in an otherwise sorted outbox.
	keysOneRun
)

// TestDrainMatchesStableSort drives mailbox traffic through Run at widths
// 1 to 4 and checks that the barrier executes, and the kernels later run,
// every message in the old concatenate-then-stable-sort order. With
// random keys, shards repeat (at, sender) keys among their own messages
// and share senders with each other; messages are due at the edge or
// later in the next window; every shard's OnShardWindow hook sends one;
// and a drained message sends a follow-up that must drain at the next
// barrier. The same traffic keyed in send order checks outboxes that
// arrive sorted, and sorted but for one run.
func TestDrainMatchesStableSort(t *testing.T) {
	for _, keys := range []drainKeys{keysRandom, keysSorted, keysOneRun} {
		for width := 1; width <= 4; width++ {
			for trial := 0; trial < 20; trial++ {
				drainTrial(t, keys, width, trial)
			}
		}
	}
}

// drainTrial is one TestDrainMatchesStableSort run: windows windows of
// traffic keyed as keys, on width shards.
func drainTrial(t *testing.T, keys drainKeys, width, trial int) {
	const (
		window  = 10 * Millisecond
		windows = 6
	)
	t.Helper()
	sk, err := NewShardedKernel(1, width, window)
	if err != nil {
		t.Fatal(err)
	}
	// sent[w][s] is shard s's outbox for the barrier closing
	// window w (1-based), in send order.
	sent := make([][][]sentMsg, windows+2)
	for w := range sent {
		sent[w] = make([][]sentMsg, width)
	}
	// ran[d] is what ran on (or at the barrier for) shard d, in
	// order; barrier is what ran at the barriers.
	ran := make([][]string, width)
	var barrier []string
	var send func(s *Shard, w int, m sentMsg)
	send = func(s *Shard, w int, m sentMsg) {
		sent[w][s.Index()] = append(sent[w][s.Index()], m)
		due := m.at <= Time(w)*window
		s.Send(m.dst, m.at, m.sender, func() {
			ran[m.dst] = append(ran[m.dst], m.label)
			if !due {
				return
			}
			barrier = append(barrier, m.label)
			if m.sender == 0 && w < windows {
				// A drained message's follow-up, due at the next
				// edge.
				f := sentMsg{dst: m.dst, at: Time(w+1) * window, sender: 1, label: m.label + "+f"}
				send(sk.Shard(m.dst), w+1, f)
			}
		})
	}
	for i := 0; i < width; i++ {
		// Each shard draws from its own source inside its own
		// events, which run in parallel with the others'.
		rng := rand.New(rand.NewSource(int64(1000*width + 10*trial + i)))
		s := sk.Shard(i)
		for j := 0; j < 12*windows; j++ {
			at := Time(1 + rng.Int63n(int64(windows*window)))
			s.Kernel().At(at, func() {
				now := s.Kernel().Now()
				w := int(sk.NextEdge(now) / window)
				delay := []Time{0, 0, Millisecond, 5 * Millisecond}[rng.Intn(4)]
				m := sentMsg{
					dst:    rng.Intn(width),
					at:     Time(w)*window + delay,
					sender: rng.Int63n(4),
				}
				if keys != keysRandom {
					// The send instant's offset in its window, in
					// (0, window]: ascending in send order.
					off := now - Time(w-1)*window
					m.at, m.sender = Time(w)*window, int64(off)
					if keys == keysOneRun && off > window/2 && off <= window/2+window/5 {
						m.sender = int64(off - window/2)
					}
				}
				m.label = fmt.Sprintf("w%d/s%d/%d", w, i, len(sent[w][i]))
				send(s, w, m)
			})
		}
	}
	sk.OnShardWindow(func(shard int, edge Time) {
		w := int(edge / window)
		sender := int64(2)
		if keys != keysRandom {
			sender = int64(window) + 1 // after every in-window send
		}
		m := sentMsg{dst: (shard + 1) % width, at: edge, sender: sender, label: fmt.Sprintf("w%d/hook%d", w, shard)}
		send(sk.Shard(shard), w, m)
	})
	if err := sk.Run(context.Background(), (windows+1)*window); err != nil {
		t.Fatal(err)
	}
	// The keyed traffic must have the shape it claims: every outbox in
	// order, or (one run) some outbox out of order.
	unsorted := 0
	for w := range sent {
		for _, o := range sent[w] {
			if !slices.IsSortedFunc(o, cmpSent) {
				unsorted++
			}
		}
	}
	if (keys == keysSorted && unsorted > 0) || (keys == keysOneRun && unsorted == 0) {
		t.Fatalf("keys %d width %d trial %d: %d outboxes out of order", keys, width, trial, unsorted)
	}
	wantRan := make([][]string, width)
	var wantBarrier []string
	for w := 1; w <= windows+1; w++ {
		for _, m := range oldDrainOrder(sent[w]) {
			wantRan[m.dst] = append(wantRan[m.dst], m.label)
			if m.at <= Time(w)*window {
				wantBarrier = append(wantBarrier, m.label)
			}
		}
	}
	if !slices.Equal(barrier, wantBarrier) {
		t.Fatalf("keys %d width %d trial %d: barrier ran\n%v\nwant\n%v", keys, width, trial, barrier, wantBarrier)
	}
	for d := range ran {
		if !slices.Equal(ran[d], wantRan[d]) {
			t.Fatalf("keys %d width %d trial %d: shard %d ran\n%v\nwant\n%v", keys, width, trial, d, ran[d], wantRan[d])
		}
	}
}
