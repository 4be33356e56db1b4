package world

import (
	"math"

	"karyon/internal/coord"
	"karyon/internal/sim"
	"karyon/internal/wireless"
)

// This file is the barrier half of V2V: receiver-owned beacon delivery.
// A window's beacons are delivered at its closing barrier, in a stage
// that runs on every shard at once (sim.ShardedKernel.Stage). Each shard
// delivers only to the receivers it owns — the published snapshot's
// entries whose shard is its own — and writes nothing but those cars'
// tables and loss streams plus its own counts. That is sound because a
// beacon's outcome at one receiver depends only on the sender's frozen
// pending beacon, the receiver's own loss stream, the jam state and the
// snapshot positions, all read-only during the stage. Every shard walks
// the senders in the order the serial fan-out used, so each receiver
// consumes its loss stream in exactly the same sequence; the counts are
// summed in shard order afterwards. The output is therefore identical at
// every width.
//
// A delivery does not write the receiver's table at once: it queues the
// beacon in the receiver's batch, and once the shard's walk is done each
// of the shard's cars merges its batch into its table in one pass
// (coord.StateTable.Merge). That is exact because nothing reads a table
// during the stage, beacons from distinct senders touch distinct entries,
// and the merge keeps one sender's beacons in arrival order.

// arcSpan is the x extent of one shard's entries in the published
// snapshot; lo > hi marks a shard with none.
type arcSpan struct{ lo, hi float64 }

// deliveryPart is one shard's context in the delivery stage. Its
// callbacks are built once, so the stage allocates nothing.
type deliveryPart struct {
	h     *Highway
	shard int

	// sender is the car whose beacon is being fanned out; sent records
	// whether its walk found any neighbour at all (abstract path).
	sender *Car
	sent   bool
	// mVisit is the medium's receiver visit for the current frame.
	mVisit func(wireless.NodeID, wireless.Position)

	// The shard's partial counts, summed into the world in shard order.
	delivered, lost int64

	visitAbstract func(i int)
	visitRadio    func(i int)
	mEach         func(*wireless.ShardedTx, func(wireless.NodeID, wireless.Position))
	mDeliver      func(*wireless.ShardedTx, wireless.NodeID)
	mDrop         func(*wireless.ShardedTx, wireless.NodeID, wireless.DropReason)

	// Keeps the parts' counters off each other's cache lines.
	_ [64]byte
}

// initDelivery builds the per-shard delivery parts and the stage
// function, and sizes the medium's receiver streams for a partitioned
// visit. A shard's stage is the medium's visit of its receiver partition
// in Medium mode and its fan-out otherwise, then the merge of its cars'
// batches.
func (h *Highway) initDelivery() {
	n := h.sk.Shards()
	h.span = make([]arcSpan, n)
	for s := 0; s < n; s++ {
		p := &deliveryPart{h: h, shard: s}
		if h.medium == nil {
			p.visitAbstract = p.deliverAbstract
		} else {
			p.visitRadio = p.offerRadio
			p.mEach = p.eachRadio
			p.mDeliver = p.deliverRadio
			p.mDrop = func(_ *wireless.ShardedTx, _ wireless.NodeID, r wireless.DropReason) {
				if r != wireless.DropBusy { // deferrals never went on air
					p.lost++
				}
			}
		}
		h.parts = append(h.parts, p)
	}
	if h.medium != nil {
		h.medium.Reserve(len(h.cars))
	}
	h.stageFn = func(shard int) {
		p := h.parts[shard]
		if h.medium != nil {
			h.medium.Visit(shard, p.mEach, p.mDeliver, p.mDrop)
		} else {
			p.fanOut()
		}
		p.flush()
	}
}

// recordSpans notes each shard's x extent in the freshly published
// snapshot. The arcs are sorted and hold exactly the snapshot's entries of
// their shard at this point, so the extent is their first and last entry.
func (h *Highway) recordSpans() {
	for s, arc := range h.arcs {
		if len(arc) == 0 {
			h.span[s] = arcSpan{lo: 1, hi: 0}
			continue
		}
		h.span[s] = arcSpan{lo: arc[0].x, hi: arc[len(arc)-1].x}
	}
}

// deliverBeacons delivers the beacons of the window closing at edge in
// the barrier stage and folds the shards' counts into the world, in shard
// order. The drain enlisted the senders in step-rank order. In Medium
// mode it queues their frames in that order and runs the serial
// contention pass, which decides frames in (start, sender) order: every
// frame's key is unique, so the queue order cannot show. The abstract
// path has no such key — each receiver's loss draws follow the sender
// walk — so it sorts the senders by id. The stage then visits the
// receivers, one partition per shard, and fleet-wide delivery outages
// feed the inaccessibility accounting. It returns the stage's error,
// which the kernel has latched.
func (h *Highway) deliverBeacons(edge sim.Time) error {
	if len(h.senders) == 0 {
		return nil // nothing attempted: no information about the channel
	}
	if h.medium != nil {
		for _, c := range h.senders {
			h.medium.Queue(c.pendTx)
		}
		h.medium.Contend(len(h.parts), h.parts[0].mDrop)
	} else {
		h.sortSendersByID()
	}
	err := h.sk.Stage(h.stageFn)
	h.senders = h.senders[:0]
	if h.medium != nil {
		h.medium.Settle()
	}
	h.collectCounts()
	if err != nil || h.medium == nil {
		return err
	}
	delivered := h.medium.Stats().Delivered
	open := edge - h.cfg.ControlPeriod
	switch {
	case delivered == h.lastDelivered && !h.inOutage:
		h.inOutage = true
		h.outageStart = open
	case delivered > h.lastDelivered && h.inOutage:
		h.inaccess.Observe(float64(open-h.outageStart) / float64(sim.Millisecond))
		h.inOutage = false
	}
	h.lastDelivered = delivered
	return nil
}

// sortSendersByID puts the window's senders in car-id order. Ids are the
// dense range [0, cars), so one bucket pass over a per-id scratch does it
// without comparisons; the senders arrive in step-rank order, the order
// their cars sit in memory, so reading their ids walks memory forward.
func (h *Highway) sortSendersByID() {
	if len(h.bucket) < len(h.cars) {
		h.bucket = make([]*Car, len(h.cars))
	}
	for _, c := range h.senders {
		h.bucket[c.ID] = c
	}
	out := h.senders[:0]
	for id, c := range h.bucket {
		if c != nil {
			out = append(out, c)
			h.bucket[id] = nil
		}
	}
	h.senders = out
}

// collectCounts adds the parts' delivery counts to the world's, in shard
// order, and clears them.
func (h *Highway) collectCounts() {
	for _, p := range h.parts {
		h.beaconsDelivered += p.delivered
		h.beaconsLost += p.lost
		p.delivered, p.lost = 0, 0
	}
}

// fanOut is one shard's half of the abstract path: every sender of the
// window, in id order (deliverBeacons sorted them), offered to the
// shard's receivers in range. The sender's own shard walks every sender
// it owns, even with no receiver of its own in reach, because it alone
// decides whether the beacon found any neighbour (beaconsSent).
func (p *deliveryPart) fanOut() {
	for _, c := range p.h.senders {
		own := c.shard == p.shard
		if !own && !p.reaches(c.Body.X) {
			continue
		}
		p.sender, p.sent = c, false
		p.h.eachInRange(c, p.visitAbstract)
		if own && p.sent {
			c.beaconsSent++
		}
	}
}

// deliverAbstract decides the current sender's beacon at snapshot entry
// i, if the shard owns it: jam, then the receiver's loss draw, then
// delivery into the receiver's batch.
func (p *deliveryPart) deliverAbstract(i int) {
	p.sent = true
	h := p.h
	e := &h.snap[i]
	if e.shard != p.shard {
		return
	}
	b, to := &p.sender.pend, h.cars[e.id]
	if h.jam.Covers(b.state.Time) {
		p.lost++
		return
	}
	if h.cfg.Loss > 0 && to.rx.Float64() < h.cfg.Loss {
		p.lost++
		return
	}
	p.hear(to, p.sender.ID, b)
}

// eachRadio is the medium's per-frame receiver walk for one shard: the
// sender's snapshot neighbours that the shard owns. The sender's shard
// counts the frame as sent.
func (p *deliveryPart) eachRadio(tx *wireless.ShardedTx, visit func(wireless.NodeID, wireless.Position)) {
	c := p.h.cars[int(tx.From)]
	if c.shard == p.shard {
		c.beaconsSent++
	} else if !p.reaches(c.Body.X) {
		return
	}
	p.mVisit = visit
	p.h.eachInRange(c, p.visitRadio)
}

// offerRadio hands snapshot entry i to the medium's visit if the shard
// owns it.
func (p *deliveryPart) offerRadio(i int) {
	if e := &p.h.snap[i]; e.shard == p.shard {
		p.mVisit(wireless.NodeID(e.id), wireless.Position{X: e.x})
	}
}

// deliverRadio queues a delivered frame's beacon in the receiver's batch.
func (p *deliveryPart) deliverRadio(tx *wireless.ShardedTx, to wireless.NodeID) {
	p.hear(p.h.cars[int(to)], int(tx.From), tx.Payload.(*beacon))
}

// hear queues a delivered beacon of sender from in the receiver's batch.
// The state stays put until flush: it is the sender's pending beacon,
// frozen for the stage.
func (p *deliveryPart) hear(to *Car, from int, b *beacon) {
	to.inbox = append(to.inbox, coord.Heard{ID: wireless.NodeID(from), State: &b.state, Accel: b.accel})
	p.delivered++
}

// flush merges the batch of every car the shard owns into its state table
// and empties it, so every batch is empty when the stage returns. The
// shard's receivers are exactly its cars: ownership moves only after the
// stage, in mergeSnapshot.
func (p *deliveryPart) flush() {
	for _, c := range p.h.byShard[p.shard] {
		if len(c.inbox) > 0 {
			c.table.Merge(c.inbox)
			c.inbox = c.inbox[:0]
		}
	}
}

// reaches reports whether a beacon sent from x may reach any of the
// shard's receivers: the ring distance from x to the shard's span is
// within V2V range. A metre of slack keeps float rounding in eachInRange's
// own distance test from ever making the skip lose a receiver it would
// visit, and a position off the ring [0, Length) or not a number — which
// eachInRange does not treat as a ring position — is never skipped.
func (p *deliveryPart) reaches(x float64) bool {
	h := p.h
	sp := h.span[p.shard]
	if sp.lo > sp.hi {
		return false
	}
	length, r := h.cfg.Length, h.cfg.V2VRange
	if 2*r >= length || !(x >= 0 && x < length) || !(sp.lo >= 0 && sp.hi < length) {
		return true
	}
	if x >= sp.lo && x <= sp.hi {
		return true
	}
	return min(ringDist(x, sp.lo, length), ringDist(x, sp.hi, length)) <= r+1
}

// ringDist is the distance between two positions on a ring of the given
// length, both in [0, length).
func ringDist(a, b, length float64) float64 {
	d := math.Abs(a - b)
	return min(d, length-d)
}

// eachInRange visits the indices of the snapshot entries within ring
// distance V2VRange of c (in either direction), excluding c itself.
func (h *Highway) eachInRange(c *Car, fn func(i int)) {
	n := len(h.snap)
	if n < 2 {
		return
	}
	x := c.Body.X
	r, length := h.cfg.V2VRange, h.cfg.Length
	if 2*r >= length {
		for i := range h.snap {
			if h.snap[i].id != c.ID {
				fn(i)
			}
		}
		return
	}
	// The first entry strictly past x: sort.Search's predicate, inlined.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(h.snap[mid].x > x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	at := lo
	for i := 0; i < n-1; i++ {
		k := at + i
		if k >= n {
			k -= n
		}
		e := &h.snap[k]
		if e.id == c.ID {
			continue
		}
		if ringMod(e.x-x+length, length) > r {
			break
		}
		fn(k)
	}
	for i := 1; i <= n-1; i++ {
		k := at - i
		if k < 0 {
			k += n
		}
		e := &h.snap[k]
		if e.id == c.ID {
			continue
		}
		if ringMod(x-e.x+length, length) > r {
			break
		}
		fn(k)
	}
}

// ringMod is math.Mod(v, length) without the call on the ring walk's
// usual operands. For v in [0, length) the remainder is v; for v in
// [length, 2·length) it is v − length, which Sterbenz's lemma makes exact.
// Anything else — negative, larger, or not a number — takes math.Mod.
func ringMod(v, length float64) float64 {
	if v >= 0 && v < length {
		return v
	}
	if v >= length && v < 2*length {
		return v - length
	}
	return math.Mod(v, length)
}
