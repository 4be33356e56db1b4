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
	sender int64
	label  string
}

// stableDrainOrder is the drain order Send promises: the outboxes
// concatenated in shard order, then stable-sorted by sender.
func stableDrainOrder(outboxes [][]sentMsg) []sentMsg {
	var all []sentMsg
	for _, o := range outboxes {
		all = append(all, o...)
	}
	slices.SortStableFunc(all, cmpSent)
	return all
}

// cmpSent orders sent messages by sender, the drain key.
func cmpSent(a, b sentMsg) int { return cmp.Compare(a.sender, b.sender) }

// drainKeys is how a TestDrainMatchesStableSort trial keys its messages.
type drainKeys int

const (
	// keysRandom draws every message's sender at random.
	keysRandom drainKeys = iota
	// keysSorted keys each message by its step's offset in the window, as
	// a model keying by step rank does: every outbox arrives sorted and
	// the shards skip their sort.
	keysSorted
	// keysOneRun is keysSorted except for the messages sent in one stretch
	// of each window, whose keys drop below their predecessors': one run
	// out of order in an otherwise sorted outbox.
	keysOneRun
)

// TestDrainMatchesStableSort drives mailbox traffic through Run at widths
// 1 to 4 and checks that every barrier runs its messages in the order of
// a stable sort by sender of the outboxes' concatenation. With random
// keys, shards repeat senders among their own messages and share senders
// with each other; every shard's second hook sends one more; and a
// drained message sends a follow-up that must drain at the next barrier.
// The same traffic keyed in step order checks outboxes that arrive
// sorted, and sorted but for one run.
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
		steps   = 12
	)
	t.Helper()
	sk, err := NewShardedKernel(1, width, window)
	if err != nil {
		t.Fatal(err)
	}
	// sent[w][s] is shard s's outbox for the barrier closing window w
	// (1-based), in send order; ran is what ran at the barriers.
	sent := make([][][]sentMsg, windows+2)
	for w := range sent {
		sent[w] = make([][]sentMsg, width)
	}
	var ran []string
	var send func(s *Shard, w int, m sentMsg)
	send = func(s *Shard, w int, m sentMsg) {
		sent[w][s.Index()] = append(sent[w][s.Index()], m)
		s.Send(m.sender, func() {
			ran = append(ran, m.label)
			if m.sender == 0 && w < windows {
				// A drained message's follow-up, for the next barrier.
				send(s, w+1, sentMsg{sender: 1, label: m.label + "+f"})
			}
		})
	}
	// Each shard draws from its own source inside its own hook, which
	// runs in parallel with the others'.
	rngs := make([]*rand.Rand, width)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(1000*width + 10*trial + i)))
	}
	sk.OnShardWindow(func(shard int, edge Time) {
		s, rng := sk.Shard(shard), rngs[shard]
		w := int(edge / window)
		offs := make([]Time, steps)
		for j := range offs {
			offs[j] = Time(1 + rng.Int63n(int64(window-1)))
		}
		slices.Sort(offs)
		for _, off := range offs {
			s.Advance(edge - window + off)
			m := sentMsg{sender: rng.Int63n(4)}
			if keys != keysRandom {
				m.sender = int64(off)
				if keys == keysOneRun && off > window/2 && off <= window/2+window/5 {
					m.sender = int64(off - window/2)
				}
			}
			m.label = fmt.Sprintf("w%d/s%d/%d", w, shard, len(sent[w][shard]))
			send(s, w, m)
		}
	})
	sk.OnShardWindow(func(shard int, edge Time) {
		w := int(edge / window)
		sender := int64(2)
		if keys != keysRandom {
			sender = int64(window) + 1 // after every step's send
		}
		send(sk.Shard(shard), w, sentMsg{sender: sender, label: fmt.Sprintf("w%d/hook%d", w, shard)})
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
	var want []string
	for w := 1; w <= windows+1; w++ {
		for _, m := range stableDrainOrder(sent[w]) {
			want = append(want, m.label)
		}
	}
	if !slices.Equal(ran, want) {
		t.Fatalf("keys %d width %d trial %d: barriers ran\n%v\nwant\n%v", keys, width, trial, ran, want)
	}
	if got, stepped := sk.Executed(), uint64(width*steps*(windows+1)); got != stepped+uint64(len(want)) {
		t.Fatalf("keys %d width %d trial %d: Executed = %d, want %d steps + %d messages", keys, width, trial, got, stepped, len(want))
	}
}
