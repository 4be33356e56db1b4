package wireless

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"karyon/internal/sim"
)

// FuzzShardedMediumOverlap drives the interval math the collision and jam
// decisions rest on. Airtime overlap must be symmetric and agree with the
// brute half-open-interval intersection. A fuzzed pair of jams — the
// second inside the first burst, at its end or after it, zero durations
// allowed — must leave a Burst, a Medium and a ShardedMedium jammed
// exactly over the interval the brute model predicts: point by point
// (Covers, Jammed) and for a frame's airtime (Overlaps, a jam drop).
func FuzzShardedMediumOverlap(f *testing.F) {
	f.Add(int64(0), int64(200), uint16(400), int64(100), int64(300), uint8(0), int64(50), int64(500))
	f.Add(int64(1000), int64(1000), uint16(1), int64(0), int64(0), uint8(1), int64(0), int64(0))
	f.Add(int64(5), int64(405), uint16(400), int64(400), int64(10), uint8(2), int64(3), int64(7))
	f.Add(int64(450), int64(0), uint16(100), int64(100), int64(400), uint8(0), int64(399), int64(0))
	f.Fuzz(func(t *testing.T, s1, s2 int64, airRaw uint16, jamAt, jamFor int64, where uint8, gap, jam2For int64) {
		air := sim.Time(airRaw%5000) + 1
		norm := func(v int64) sim.Time {
			if v < 0 {
				v = -v
			}
			return sim.Time(v % 1_000_000)
		}
		a := ShardedTx{From: 0, Start: norm(s1)}
		b := ShardedTx{From: 1, Start: norm(s2)}
		brute := func(s1, e1, s2, e2 sim.Time) bool {
			lo, hi := s1, e1
			if s2 > lo {
				lo = s2
			}
			if e2 < hi {
				hi = e2
			}
			return lo < hi
		}
		if airtimesOverlap(&a, &b, air) != airtimesOverlap(&b, &a, air) {
			t.Fatalf("overlap not symmetric: a=%d b=%d air=%d", a.Start, b.Start, air)
		}
		if got, want := airtimesOverlap(&a, &b, air), brute(a.Start, a.end(air), b.Start, b.end(air)); got != want {
			t.Fatalf("overlap(%d,%d air=%d) = %v, brute = %v", a.Start, b.Start, air, got, want)
		}

		// The jams: [t1, t1+d1), then d2 from t2.
		t1, d1, d2 := norm(jamAt), norm(jamFor), norm(jam2For)
		var t2 sim.Time
		switch where % 3 {
		case 0: // inside the first burst (at its start if it is empty)
			t2 = t1
			if d1 > 0 {
				t2 += norm(gap) % d1
			}
		case 1: // at its end
			t2 = t1 + d1
		default: // after it
			t2 = t1 + d1 + 1 + norm(gap)
		}
		// The brute model: a jam landing inside the first burst lengthens
		// it, never shortens it; otherwise it replaces it.
		first := func(at sim.Time) bool { return at >= t1 && at < t1+d1 }
		from, until := t2, t2+d2
		if t2 < t1+d1 {
			from, until = t1, max(t1+d1, t2+d2)
		}
		covers := func(at sim.Time) bool { return at >= from && at < until }
		jammed := brute(a.Start, a.end(air), from, until)
		points := []sim.Time{0, t1, t1 + d1, t2, t2 + d2, from - 1, from, from + (until-from)/2, until - 1, until}

		var burst Burst
		burst.Extend(t1, d1)
		burst.Extend(t2, d2)
		for _, at := range points {
			if got := burst.Covers(at); got != covers(at) {
				t.Fatalf("Burst %+v: Covers(%d) = %v, model [%d,%d)", burst, at, got, from, until)
			}
		}
		if got := burst.Overlaps(a.Start, a.end(air)); got != jammed {
			t.Fatalf("Burst %+v: Overlaps(%d,%d) = %v, model [%d,%d)", burst, a.Start, a.end(air), got, from, until)
		}

		cfg := DefaultShardedConfig()
		cfg.Airtime = air
		sm := NewShardedMedium(1, cfg)
		sm.Jam(0, t1, d1)
		sm.Jam(0, t2, d2)
		for _, at := range points {
			if got := sm.Jammed(0, at); got != covers(at) {
				t.Fatalf("ShardedMedium: Jammed(%d) = %v, model [%d,%d)", at, got, from, until)
			}
		}
		var log outcomeLog
		sm.Queue(a)
		resolveAll(sm, map[NodeID]Position{0: {}, 1: {}}, &log)
		if got := log.String() == fmt.Sprintf("0@%d->1 jam", a.Start); got != jammed {
			t.Fatalf("ShardedMedium: frame %d+%d against model [%d,%d): %q", a.Start, air, from, until, log.String())
		}

		// The legacy medium jams at kernel time. Its frame completes after
		// the second jam (the propagation delay carries it past t2), and
		// Jammed is probed at every point the kernel reaches after t1.
		mcfg := DefaultConfig()
		mcfg.Airtime, mcfg.PropDelay = air, t2+1
		k, m := newTestMedium(t, mcfg)
		tx, rx := attach(t, m, 0, Position{}), attach(t, m, 1, Position{})
		var reason DropReason
		rx.OnReceive(func(Frame) { reason = -1 })
		m.SetDropObserver(func(_ NodeID, r DropReason) { reason = r })
		k.At(t1, func() { m.Jam(0, d1) })
		k.At(t2, func() { m.Jam(0, d2) })
		k.At(a.Start, func() { tx.Broadcast(nil) })
		for _, at := range points {
			if at < t1 {
				continue
			}
			want := covers(at)
			if at < t2 {
				want = first(at)
			}
			k.At(at, func() {
				if got := m.Jammed(0); got != want {
					t.Errorf("Medium: Jammed at %d = %v, want %v (jams %d+%d, %d+%d)", at, got, want, t1, d1, t2, d2)
				}
			})
		}
		k.RunUntilIdle()
		if got := reason == DropJam; got != jammed || reason == 0 {
			t.Fatalf("Medium: frame %d+%d against model [%d,%d): reason %v", a.Start, air, from, until, reason)
		}
	})
}

// FuzzShardedMediumQueueOrderInvariance locks the determinism contract:
// the resolved outcome log is a pure function of the frame set, never of
// the order frames were queued in — which is what makes the medium safe to
// feed from per-shard mailboxes at any width.
func FuzzShardedMediumQueueOrderInvariance(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(1))
	f.Add([]byte{200, 0, 200, 0, 9, 9, 9, 9, 40, 41, 42}, int64(7))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		if len(raw) < 4 {
			return
		}
		cfg := DefaultShardedConfig()
		cfg.LossProb = 0.3
		cfg.Channels = 1 + int(raw[0]%3)
		cfg.CarrierSense = raw[1]%2 == 0
		n := 2 + int(raw[2]%14)
		frames := make([]ShardedTx, 0, n)
		pos := make(map[NodeID]Position, n)
		for i := 0; i < n; i++ {
			b := func(k int) int64 { return int64(raw[(3+i*3+k)%len(raw)]) }
			p := Position{X: float64(b(0)) * 7}
			frames = append(frames, ShardedTx{
				From:    NodeID(i), // unique sender per frame: the sort key is total
				Channel: int(b(1)) % cfg.Channels,
				Pos:     p,
				Start:   sim.Time(b(2) * 37 % 4000),
			})
			pos[NodeID(i)] = p
		}
		run := func(order []ShardedTx) string {
			m := NewShardedMedium(seed, cfg)
			m.Jam(0, sim.Time(int64(raw[3])*11), sim.Time(int64(raw[0])*13))
			for _, tx := range order {
				m.Queue(tx)
			}
			var log []string
			m.Resolve(func(tx *ShardedTx, visit func(NodeID, Position)) {
				for i := 0; i < n; i++ {
					visit(NodeID(i), pos[NodeID(i)])
				}
			}, func(tx *ShardedTx, to NodeID) {
				log = append(log, fmt.Sprintf("%d@%d->%d ok", tx.From, tx.Start, to))
			}, func(tx *ShardedTx, to NodeID, r DropReason) {
				log = append(log, fmt.Sprintf("%d@%d->%d %s", tx.From, tx.Start, to, r))
			})
			return strings.Join(log, "\n")
		}
		forward := run(frames)
		reversed := make([]ShardedTx, n)
		for i, tx := range frames {
			reversed[n-1-i] = tx
		}
		if got := run(reversed); got != forward {
			t.Fatalf("queue order changed the outcome:\nforward:\n%s\nreversed:\n%s", forward, got)
		}
		rotated := append(append([]ShardedTx{}, frames[n/2:]...), frames[:n/2]...)
		if got := run(rotated); got != forward {
			t.Fatalf("queue rotation changed the outcome:\nforward:\n%s\nrotated:\n%s", forward, got)
		}
	})
}

// oracleEntry is one outcome of the brute-force ladder: the receiver it
// went to and its log line.
type oracleEntry struct {
	to   NodeID
	line string
}

// oracleLine formats one outcome: the frame's queue index (its Payload),
// sender and start, the receiver, and the outcome.
func oracleLine(tx *ShardedTx, to NodeID, outcome string) string {
	return fmt.Sprintf("q%d %d@%d->%d %s", tx.Payload.(int), tx.From, tx.Start, to, outcome)
}

// bruteDist is the metric spelled out again: arc length along X on a ring
// of the given length, or the Euclidean plane when ring is 0.
func bruteDist(ring float64, a, b Position) float64 {
	if ring > 0 {
		d := math.Abs(a.X - b.X)
		if d > ring/2 {
			d = ring - d
		}
		return d
	}
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// bruteResolve decides a window the slow way: a stable sort by (Start,
// From), carrier sense against every earlier on-air frame, then for each
// on-air frame and each node in id order the ladder range, jam, a
// collision check over every other on-air frame, loss. Frames carry no
// Retry, so a busy channel drops the frame.
func bruteResolve(cfg ShardedConfig, seed int64, queued []ShardedTx, nodes []Position,
	jams []Burst) []oracleEntry {
	frames := append([]ShardedTx(nil), queued...)
	sort.SliceStable(frames, func(i, j int) bool {
		if frames[i].Start != frames[j].Start {
			return frames[i].Start < frames[j].Start
		}
		return frames[i].From < frames[j].From
	})
	air := cfg.Airtime
	overlap := func(a, b *ShardedTx) bool { return a.Start < b.Start+air && b.Start < a.Start+air }
	var log []oracleEntry
	var onAir []*ShardedTx
	for i := range frames {
		tx := &frames[i]
		if cfg.CarrierSense {
			c := tx.Channel
			busy := tx.Start >= jams[c].Start && tx.Start < jams[c].Until
			for _, o := range onAir {
				if o.Channel == c && o.From != tx.From && o.Start < tx.Start && tx.Start < o.Start+air &&
					bruteDist(cfg.Ring, o.Pos, tx.Pos) <= cfg.Range {
					busy = true
				}
			}
			if busy {
				log = append(log, oracleEntry{tx.From, oracleLine(tx, tx.From, "busy")})
				continue
			}
		}
		onAir = append(onAir, tx)
	}
	streams := make(map[NodeID]*sim.Stream)
	for _, tx := range onAir {
		c := tx.Channel
		jam := jams[c]
		jammed := jam.Start < jam.Until && jam.Start < tx.Start+air && jam.Until > tx.Start
		for id, pos := range nodes {
			to := NodeID(id)
			if to == tx.From {
				continue
			}
			outcome := "ok"
			collided := false
			for _, o := range onAir {
				if o != tx && o.Channel == c && overlap(o, tx) && bruteDist(cfg.Ring, o.Pos, pos) <= cfg.Range {
					collided = true
				}
			}
			switch {
			case bruteDist(cfg.Ring, tx.Pos, pos) > cfg.Range:
				outcome = "range"
			case jammed:
				outcome = "jam"
			case collided:
				outcome = "collision"
			case cfg.LossProb > 0:
				s := streams[to]
				if s == nil {
					s = sim.NewStream(seed, int64(to), shardedLossDim)
					streams[to] = s
				}
				if s.Float64() < cfg.LossProb {
					outcome = "loss"
				}
			}
			log = append(log, oracleEntry{to, oracleLine(tx, to, outcome)})
		}
	}
	return log
}

// FuzzShardedCollisionOracle checks the medium's outcome logs, from one
// Resolve and from a two-partition Contend/Visit/Settle, against
// bruteResolve. Positions come from a palette that puts nodes exactly
// 2·Range and 2·Range + 1 apart and off the metric domain (NaN, ±Inf,
// negative, at or past the ring length, 1e12 m), where the collision
// prefilter must fall back to the full scan.
func FuzzShardedCollisionOracle(f *testing.F) {
	f.Add([]byte{0x09, 6, 1, 40, 0, 10, 0, 1, 1, 20, 0, 2, 2, 30, 0, 3}, int64(1))
	f.Add([]byte{0x18, 9, 3, 7, 4, 0, 0, 0, 4, 1, 0, 1, 4, 2, 0, 2, 4, 3, 0, 0, 7, 20, 40, 5}, int64(2))
	f.Add([]byte{0x1f, 12, 2, 90, 4, 5, 1, 0, 4, 6, 2, 9, 4, 7, 0, 3, 4, 8, 1, 4, 4, 10, 2, 1}, int64(3))
	// On the ring, a sender at 98 and an interferer at 700 (602 m apart,
	// past the 601 m cut) both reach a receiver at 2504, which is off the
	// ring: the receiver must get the full scan and collide.
	f.Add([]byte{0x01, 1, 0, 0, 0, 14, 0, 0, 0, 100, 0, 1, 5, 72, 0, 200}, int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		if len(raw) < 8 {
			return
		}
		cfg := DefaultShardedConfig()
		if raw[0]&1 != 0 {
			cfg.Ring = 2000
		}
		cfg.Channels = 1 + int(raw[0]>>1&3)%3
		cfg.CarrierSense = raw[0]&8 != 0
		if raw[0]&16 != 0 {
			cfg.LossProb = 0.3
		}
		cfg.Range = []float64{300, 250, 75, 300}[raw[0]>>5&3]
		r, ring := cfg.Range, float64(2000)
		specials := []float64{0, r, 2 * r, 2*r + 1, -50, math.NaN(), math.Inf(1), math.Inf(-1),
			ring, ring + 5, 1e12, -1e12, ring - 2*r - 1, ring - 1}
		n := 2 + int(raw[1]%16)
		at := func(k int) int { return int(raw[k%len(raw)]) }
		nodes := make([]Position, n)
		var frames []ShardedTx
		for i := range nodes {
			kind, v, w, s := at(4+4*i), at(5+4*i), at(6+4*i), at(7+4*i)
			p := &nodes[i]
			switch kind % 8 {
			case 4:
				p.X = specials[v%len(specials)]
			case 5:
				p.X = ring + float64(v)*7
			case 6:
				p.X = -float64(v)*7 - 1
			case 7:
				p.X, p.Y = float64(v)*7, float64(w)*3
			default:
				p.X = float64(v) * 7
			}
			frames = append(frames, ShardedTx{
				From:    NodeID(i),
				Channel: w % cfg.Channels,
				Pos:     *p,
				Start:   sim.Time(s * 37 % 4000),
			})
		}
		// Extra frames from existing senders can repeat a (Start, From)
		// pair, which queue order must break.
		for k := 0; k < int(raw[1]>>4); k++ {
			from := at(3+k) % n
			frames = append(frames, ShardedTx{
				From:    NodeID(from),
				Channel: at(2+k) % cfg.Channels,
				Pos:     nodes[from],
				Start:   frames[at(5+k)%n].Start,
			})
		}
		for i := range frames {
			frames[i].Payload = i
		}
		jam := func(m *ShardedMedium) {
			from, d := sim.Time(at(3)*17), sim.Time(at(2)*5)
			if c := at(2) % 4; c == 3 {
				m.JamAll(from, d)
			} else {
				m.Jam(c, from, d)
			}
		}

		ref := NewShardedMedium(seed, cfg)
		jam(ref)
		want := bruteResolve(cfg, seed, frames, nodes, ref.jams)

		for _, tx := range frames {
			ref.Queue(tx)
		}
		var got []string
		everyNode := func(tx *ShardedTx, visit func(NodeID, Position)) {
			for id, pos := range nodes {
				visit(NodeID(id), pos)
			}
		}
		ref.Resolve(everyNode, func(tx *ShardedTx, to NodeID) {
			got = append(got, oracleLine(tx, to, "ok"))
		}, func(tx *ShardedTx, to NodeID, r DropReason) {
			got = append(got, oracleLine(tx, to, r.String()))
		})
		wantLines := make([]string, len(want))
		for i, e := range want {
			wantLines[i] = e.line
		}
		if g, w := strings.Join(got, "\n"), strings.Join(wantLines, "\n"); g != w {
			t.Fatalf("cfg %+v nodes %v\nResolve:\n%s\nbrute:\n%s", cfg, nodes, g, w)
		}

		// Two partitions, even and odd ids: each receiver's log, and the
		// deferrals, must match the brute log filtered to it.
		split := NewShardedMedium(seed, cfg)
		jam(split)
		split.Reserve(n)
		for _, tx := range frames {
			split.Queue(tx)
		}
		perRx := make([][]string, n)
		var busy []string
		deliver := func(tx *ShardedTx, to NodeID) { perRx[to] = append(perRx[to], oracleLine(tx, to, "ok")) }
		drop := func(tx *ShardedTx, to NodeID, r DropReason) {
			if r == DropBusy {
				busy = append(busy, oracleLine(tx, to, r.String()))
				return
			}
			perRx[to] = append(perRx[to], oracleLine(tx, to, r.String()))
		}
		split.Contend(2, drop)
		for part := 0; part < 2; part++ {
			split.Visit(part, func(tx *ShardedTx, visit func(NodeID, Position)) {
				for id := part; id < n; id += 2 {
					visit(NodeID(id), nodes[id])
				}
			}, deliver, drop)
		}
		split.Settle()
		wantRx := make([][]string, n)
		var wantBusy []string
		for _, e := range want {
			if strings.HasSuffix(e.line, " busy") {
				wantBusy = append(wantBusy, e.line)
			} else {
				wantRx[e.to] = append(wantRx[e.to], e.line)
			}
		}
		if g, w := strings.Join(busy, "\n"), strings.Join(wantBusy, "\n"); g != w {
			t.Fatalf("partitioned deferrals:\n%s\nbrute:\n%s", g, w)
		}
		for id := range perRx {
			if g, w := strings.Join(perRx[id], "\n"), strings.Join(wantRx[id], "\n"); g != w {
				t.Fatalf("cfg %+v nodes %v\npartitioned receiver %d:\n%s\nbrute:\n%s", cfg, nodes, id, g, w)
			}
		}
		if ref.Stats() != split.Stats() {
			t.Fatalf("stats: Resolve %+v, partitioned %+v", ref.Stats(), split.Stats())
		}
	})
}
