package coord

import (
	"bytes"
	"slices"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
)

// updateOne is the per-beacon table write Merge replaced, kept as the
// reference: a binary search for the sender, an insert for a new one, the
// newest state kept and the last acceleration taken.
func updateOne(t *StateTable, s CoopState, accel float64) {
	i, ok := slices.BinarySearchFunc(t.peers, s.ID, func(p peer, id wireless.NodeID) int {
		switch {
		case p.state.ID < id:
			return -1
		case p.state.ID > id:
			return 1
		}
		return 0
	})
	if !ok {
		t.peers = slices.Insert(t.peers, i, peer{state: s})
	} else if t.peers[i].state.Time <= s.Time {
		t.peers[i].state = s
	}
	t.peers[i].accel = accel
}

// tableBytes is everything a checkpoint writes of a table.
func tableBytes(t *StateTable) []byte {
	var e trace.Enc
	c := trace.Encoder(&e)
	t.State(c)
	t.AccelState(c)
	return e.Bytes()
}

// FuzzStateTableMerge checks Merge against one updateOne per beacon, in
// batch order. The input is a sequence of 4-byte beacons: sender, state
// time, speed, acceleration; a sender byte of 0xff ends the batch. Senders
// and times come from small ranges, so batches name a sender twice, carry
// states older than the table's, and insert before, between and after the
// senders already held.
func FuzzStateTableMerge(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 0xff, 0, 0, 0, 0, 0xff, 9, 0, 0, 0, 0xff, 3, 0, 0, 0}) // tail, head, middle
	f.Add([]byte{4, 2, 1, 1, 4, 1, 2, 2, 4, 3, 3, 3})                               // one sender thrice, one state stale
	f.Add([]byte{7, 3, 1, 1, 0xff, 7, 1, 9, 9, 2, 0, 1, 1, 7, 3, 5, 5})             // stale then equal time
	f.Add([]byte{9, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})       // unsorted, with a repeat
	f.Add([]byte{0xff, 0xff, 2, 1, 1, 1})
	var long []byte // a long batch: 40 beacons, senders descending and repeated
	for i := 39; i >= 0; i-- {
		long = append(long, byte(i/3), byte(i), byte(i), byte(i))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.NewKernel(1)
		got, want := NewStateTable(k, sim.Second), NewStateTable(k, sim.Second)
		var batch []Heard
		flush := func() {
			got.Merge(batch)
			if !slices.Equal(got.peers, want.peers) {
				t.Fatalf("after a batch of %d: peers\n%+v\nwant\n%+v", len(batch), got.peers, want.peers)
			}
			if g, w := tableBytes(got), tableBytes(want); !bytes.Equal(g, w) {
				t.Fatalf("after a batch of %d: encoded table differs", len(batch))
			}
			batch = batch[:0]
		}
		for len(data) > 0 {
			if data[0] == 0xff {
				flush()
				data = data[1:]
				continue
			}
			if len(data) < 4 {
				break
			}
			s := &CoopState{
				ID:    wireless.NodeID(data[0] % 16),
				Speed: float64(data[2]),
				Time:  sim.Time(data[1]%4) * sim.Millisecond,
			}
			accel := float64(int8(data[3])) / 4
			batch = append(batch, Heard{ID: s.ID, State: s, Accel: accel})
			updateOne(want, *s, accel)
			data = data[4:]
		}
		flush()
	})
}
