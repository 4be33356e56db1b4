package coord

import (
	"fmt"

	"karyon/internal/sim"
	"karyon/internal/wireless"
)

// Resource identifies a contended maneuver resource, e.g. "lane-2@km3.1"
// or an intersection box.
type Resource string

// Outcome is the result of a reservation attempt.
type Outcome int

// Reservation outcomes.
const (
	OutcomeGranted Outcome = iota + 1
	OutcomeDenied
	OutcomeTimeout
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeGranted:
		return "granted"
	case OutcomeDenied:
		return "denied"
	case OutcomeTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Wire messages.
type reqMsg struct {
	From     wireless.NodeID
	Resource Resource
	ReqID    uint64
}

type replyMsg struct {
	From  wireless.NodeID
	To    wireless.NodeID
	ReqID uint64
	Grant bool
}

type commitMsg struct {
	From     wireless.NodeID
	Resource Resource
	ReqID    uint64
}

type releaseMsg struct {
	From     wireless.NodeID
	Resource Resource
	ReqID    uint64
}

// AgreementConfig parameterizes the reservation protocol.
type AgreementConfig struct {
	// Timeout bounds how long the requester waits for unanimous grants.
	// Expiry aborts the maneuver (the safe direction: silence denies).
	Timeout sim.Time
	// Retry is the request re-broadcast period within the timeout window;
	// replies are idempotent, so retries only fight message loss.
	Retry sim.Time
	// ReplyJitter spreads peers' replies over a random delay so they do
	// not collide on the shared medium.
	ReplyJitter sim.Time
	// HoldFor bounds how long a committed reservation may be held before
	// peers consider it expired (crash safety).
	HoldFor sim.Time
}

// DefaultAgreementConfig returns VANET-scale timeouts.
func DefaultAgreementConfig() AgreementConfig {
	return AgreementConfig{
		Timeout: 200 * sim.Millisecond,
		Retry:   50 * sim.Millisecond,
		// Wide enough that ~10 peers' replies rarely collide: replies are
		// not retried individually, only re-solicited by request retries.
		ReplyJitter: 25 * sim.Millisecond,
		HoldFor:     5 * sim.Second,
	}
}

// Agreement runs the maneuver-reservation protocol on one node. The safety
// property: two nodes never hold a committed reservation on the same
// resource at overlapping times (within connected communication); loss of
// messages can only cause aborts, never double grants.
type Agreement struct {
	cfg    AgreementConfig
	kernel *sim.Kernel
	radio  *wireless.Radio
	peers  func() []wireless.NodeID

	nextReq uint64
	// grantedTo tracks which peer currently holds each resource (from our
	// point of view), with the grant's expiry.
	grantedTo map[Resource]grantRecord
	// pending is our own outstanding request, if any.
	pending *pendingReq
	// held are the resources we currently hold.
	held map[Resource]uint64

	// Requests / Granted / Denied / Timeouts count attempt outcomes.
	Requests int64
	Granted  int64
	Denied   int64
	Timeouts int64
}

type grantRecord struct {
	holder  wireless.NodeID
	reqID   uint64
	expires sim.Time
	// committed marks that a commit was observed (vs merely replied).
	committed bool
}

type pendingReq struct {
	reqID    uint64
	resource Resource
	needed   map[wireless.NodeID]bool
	done     func(Outcome)
	timer    sim.Timer
	finished bool
}

// NewAgreement creates the protocol instance. peers supplies the current
// cooperation scope — the peers whose grant a maneuver needs; every peer
// in scope at request time must grant.
func NewAgreement(kernel *sim.Kernel, radio *wireless.Radio, cfg AgreementConfig, peers func() []wireless.NodeID) *Agreement {
	return &Agreement{
		cfg:       cfg,
		kernel:    kernel,
		radio:     radio,
		peers:     peers,
		grantedTo: make(map[Resource]grantRecord),
		held:      make(map[Resource]uint64),
	}
}

// ID returns the node id.
func (a *Agreement) ID() wireless.NodeID { return a.radio.ID() }

// Holds reports whether this node currently holds the resource.
func (a *Agreement) Holds(r Resource) bool {
	_, ok := a.held[r]
	return ok
}

// HeldBy returns which node this instance believes holds the resource (0,
// false when none or expired).
func (a *Agreement) HeldBy(r Resource) (wireless.NodeID, bool) {
	g, ok := a.grantedTo[r]
	if !ok || !g.committed || a.kernel.Now() >= g.expires {
		return 0, false
	}
	return g.holder, true
}

// Request attempts to reserve the resource. done is invoked exactly once.
// Only one outstanding request per node is allowed; a second concurrent
// request is denied locally.
func (a *Agreement) Request(r Resource, done func(Outcome)) {
	a.Requests++
	if a.pending != nil && !a.pending.finished {
		a.Denied++
		if done != nil {
			done(OutcomeDenied)
		}
		return
	}
	// Local check: someone else holds it.
	if holder, ok := a.HeldBy(r); ok && holder != a.radio.ID() {
		a.Denied++
		if done != nil {
			done(OutcomeDenied)
		}
		return
	}
	a.nextReq++
	scope := a.peers()
	needed := make(map[wireless.NodeID]bool, len(scope))
	for _, id := range scope {
		if id != a.radio.ID() {
			needed[id] = true
		}
	}
	p := &pendingReq{reqID: a.nextReq, resource: r, needed: needed, done: done}
	a.pending = p
	if len(needed) == 0 {
		a.commit(p)
		return
	}
	deadline := a.kernel.Now() + a.cfg.Timeout
	var attempt func()
	attempt = func() {
		if p.finished {
			return
		}
		if a.kernel.Now() >= deadline {
			p.finished = true
			a.Timeouts++
			if p.done != nil {
				p.done(OutcomeTimeout)
			}
			return
		}
		a.radio.Broadcast(reqMsg{From: a.radio.ID(), Resource: r, ReqID: p.reqID})
		retry := a.cfg.Retry
		if retry <= 0 {
			retry = a.cfg.Timeout
		}
		p.timer = a.kernel.Schedule(retry, attempt)
	}
	attempt()
	a.kernel.Schedule(a.cfg.Timeout, func() {
		if p.finished {
			return
		}
		p.finished = true
		p.timer.Cancel()
		a.Timeouts++
		if p.done != nil {
			p.done(OutcomeTimeout)
		}
	})
}

// Release gives up a held resource and notifies peers.
func (a *Agreement) Release(r Resource) {
	reqID, ok := a.held[r]
	if !ok {
		return
	}
	delete(a.held, r)
	// Drop our own grant record as well — broadcasts do not loop back.
	if g, ok := a.grantedTo[r]; ok && g.holder == a.radio.ID() {
		delete(a.grantedTo, r)
	}
	// Broadcast the release three times: a peer that misses it would keep
	// denying the resource until the hold expires, stalling everyone.
	msg := releaseMsg{From: a.radio.ID(), Resource: r, ReqID: reqID}
	a.radio.Broadcast(msg)
	for i := 1; i <= 2; i++ {
		jitter := sim.Time(a.kernel.Rand().Int63n(int64(20 * sim.Millisecond)))
		a.kernel.Schedule(sim.Time(i)*25*sim.Millisecond+jitter, func() {
			a.radio.Broadcast(msg)
		})
	}
}

func (a *Agreement) commit(p *pendingReq) {
	p.finished = true
	p.timer.Cancel()
	a.held[p.resource] = p.reqID
	a.grantedTo[p.resource] = grantRecord{
		holder:    a.radio.ID(),
		reqID:     p.reqID,
		expires:   a.kernel.Now() + a.cfg.HoldFor,
		committed: true,
	}
	a.radio.Broadcast(commitMsg{From: a.radio.ID(), Resource: p.resource, ReqID: p.reqID})
	a.Granted++
	if p.done != nil {
		p.done(OutcomeGranted)
	}
}

// OnFrame feeds a received frame into the protocol. Wire it to the radio's
// receive path (possibly demultiplexed with other traffic).
func (a *Agreement) OnFrame(f wireless.Frame) {
	now := a.kernel.Now()
	switch m := f.Payload.(type) {
	case reqMsg:
		grant := true
		// Deny if we hold it, we are requesting it, or we know of a live
		// committed grant to someone else.
		if _, held := a.held[m.Resource]; held {
			grant = false
		}
		if a.pending != nil && !a.pending.finished && a.pending.resource == m.Resource {
			// Tie break by id: the lower id proceeds, the higher defers.
			if a.radio.ID() < m.From {
				grant = false
			}
		}
		// A live grant — provisional or committed — to a different node
		// denies this request.
		if g, ok := a.grantedTo[m.Resource]; ok && now < g.expires && g.holder != m.From {
			grant = false
		}
		if grant {
			// Remember a provisional (uncommitted) grant so concurrent
			// requesters are denied until this one resolves or expires.
			a.grantedTo[m.Resource] = grantRecord{
				holder:  m.From,
				reqID:   m.ReqID,
				expires: now + a.cfg.Timeout,
			}
		}
		// Reply after a random jitter: every peer receives the request at
		// the same instant and synchronized replies would all collide.
		reply := replyMsg{From: a.radio.ID(), To: m.From, ReqID: m.ReqID, Grant: grant}
		jitter := sim.Time(0)
		if a.cfg.ReplyJitter > 0 {
			jitter = sim.Time(a.kernel.Rand().Int63n(int64(a.cfg.ReplyJitter)))
		}
		a.kernel.Schedule(jitter, func() { a.radio.Broadcast(reply) })
	case replyMsg:
		if m.To != a.radio.ID() {
			return
		}
		p := a.pending
		if p == nil || p.finished || m.ReqID != p.reqID {
			return
		}
		if !m.Grant {
			p.finished = true
			p.timer.Cancel()
			a.Denied++
			if p.done != nil {
				p.done(OutcomeDenied)
			}
			return
		}
		delete(p.needed, m.From)
		if len(p.needed) == 0 {
			a.commit(p)
		}
	case commitMsg:
		a.grantedTo[m.Resource] = grantRecord{
			holder:    m.From,
			reqID:     m.ReqID,
			expires:   now + a.cfg.HoldFor,
			committed: true,
		}
	case releaseMsg:
		if g, ok := a.grantedTo[m.Resource]; ok && g.holder == m.From {
			delete(a.grantedTo, m.Resource)
		}
	}
}
