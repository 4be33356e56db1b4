package coord

import (
	"slices"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/wireless"
)

func TestStateTableFreshness(t *testing.T) {
	k := sim.NewKernel(1)
	tab := NewStateTable(k, 100*sim.Millisecond)
	tab.Merge([]Heard{{1, &CoopState{ID: 1, Speed: 10, Time: 0, Validity: 0.9}, 0.5}})
	if _, ok := tab.Get(1); !ok {
		t.Fatal("fresh entry missing")
	}
	if _, ok := tab.Get(2); ok {
		t.Fatal("unheard peer returned")
	}
	k.Schedule(100*sim.Millisecond, func() {
		if _, ok := tab.Get(1); !ok {
			t.Error("entry exactly maxAge old reported stale")
		}
	})
	k.Schedule(200*sim.Millisecond, func() {
		if _, ok := tab.Get(1); ok {
			t.Error("stale entry still returned")
		}
		tab.Merge([]Heard{{1, &CoopState{ID: 1, Speed: 12, Time: 200 * sim.Millisecond, Validity: 0.9}, 0}})
		if s, ok := tab.Get(1); !ok || s.Speed != 12 {
			t.Errorf("refreshed entry = %+v, %v", s, ok)
		}
	})
	k.RunUntilIdle()
}

// The newest state and the last acceleration win, whether the beacons
// come in separate batches or in one.
func TestStateTableKeepsNewest(t *testing.T) {
	newer := Heard{1, &CoopState{ID: 1, Speed: 10, Time: 50 * sim.Millisecond}, 1.5}
	older := Heard{1, &CoopState{ID: 1, Speed: 5, Time: 10 * sim.Millisecond}, -2}
	for _, batches := range [][][]Heard{
		{{newer}, {older}},
		{{newer, older}},
	} {
		k := sim.NewKernel(1)
		tab := NewStateTable(k, sim.Second)
		for _, b := range batches {
			tab.Merge(b)
		}
		s, ok := tab.Get(1)
		if !ok || s.Speed != 10 {
			t.Fatalf("%d batches: got %+v, want newest (speed 10)", len(batches), s)
		}
		// The acceleration is the last delivered, whatever its state's age.
		if a, ok := tab.Accel(1); !ok || a != -2 {
			t.Fatalf("%d batches: Accel = %v, %v, want the last delivered (-2)", len(batches), a, ok)
		}
		if _, ok := tab.Accel(2); ok {
			t.Fatal("acceleration for an unheard peer")
		}
	}
}

// Peers stay sorted by sender whatever order they are first heard in,
// one beacon per batch or all in one, so the checkpoint encoding is a pure
// function of the table's contents.
func TestStateTableSortedBySender(t *testing.T) {
	for _, batched := range []bool{false, true} {
		k := sim.NewKernel(1)
		tab := NewStateTable(k, sim.Second)
		var batch []Heard
		for _, id := range []wireless.NodeID{7, 2, 9, 2, 4, 0} {
			batch = append(batch, Heard{id, &CoopState{ID: id, Speed: float64(id)}, float64(id) / 10})
			if !batched {
				tab.Merge(batch)
				batch = batch[:0]
			}
		}
		tab.Merge(batch)
		var got []wireless.NodeID
		for _, p := range tab.peers {
			got = append(got, p.state.ID)
		}
		if want := []wireless.NodeID{0, 2, 4, 7, 9}; !slices.Equal(got, want) {
			t.Fatalf("batched=%v: peers = %v, want %v", batched, got, want)
		}
		for _, id := range got {
			if s, ok := tab.Get(id); !ok || s.Speed != float64(id) {
				t.Fatalf("batched=%v: Get(%d) = %+v, %v", batched, id, s, ok)
			}
		}
	}
}

// agreementRig wires n Agreement nodes on a clean medium with full scope.
type agreementRig struct {
	k      *sim.Kernel
	medium *wireless.Medium
	nodes  []*Agreement
}

func newAgreementRig(t *testing.T, seed int64, n int, loss float64) *agreementRig {
	t.Helper()
	k := sim.NewKernel(seed)
	mcfg := wireless.DefaultConfig()
	mcfg.LossProb = loss
	medium := wireless.NewMedium(k, mcfg)
	rig := &agreementRig{k: k, medium: medium}
	all := func() []wireless.NodeID {
		ids := make([]wireless.NodeID, n)
		for i := range ids {
			ids[i] = wireless.NodeID(i)
		}
		return ids
	}
	for i := 0; i < n; i++ {
		radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 5})
		if err != nil {
			t.Fatal(err)
		}
		a := NewAgreement(k, radio, DefaultAgreementConfig(), all)
		radio.OnReceive(a.OnFrame)
		rig.nodes = append(rig.nodes, a)
	}
	return rig
}

func TestAgreementSoloGrant(t *testing.T) {
	rig := newAgreementRig(t, 1, 1, 0)
	var got Outcome
	rig.nodes[0].Request("lane", func(o Outcome) { got = o })
	rig.k.RunFor(sim.Second)
	if got != OutcomeGranted {
		t.Fatalf("solo outcome = %v", got)
	}
	if !rig.nodes[0].Holds("lane") {
		t.Fatal("holder flag not set")
	}
}

func TestAgreementUnanimousGrant(t *testing.T) {
	rig := newAgreementRig(t, 2, 4, 0)
	var got Outcome
	rig.nodes[1].Request("lane", func(o Outcome) { got = o })
	rig.k.RunFor(sim.Second)
	if got != OutcomeGranted {
		t.Fatalf("outcome = %v", got)
	}
	// All peers learn the committed holder.
	for i, n := range rig.nodes {
		if i == 1 {
			continue
		}
		holder, ok := n.HeldBy("lane")
		if !ok || holder != 1 {
			t.Fatalf("node %d view: holder=%v ok=%v", i, holder, ok)
		}
	}
}

func TestAgreementDeniedWhileHeld(t *testing.T) {
	rig := newAgreementRig(t, 3, 3, 0)
	var first, second Outcome
	rig.nodes[0].Request("lane", func(o Outcome) { first = o })
	rig.k.RunFor(sim.Second)
	rig.nodes[2].Request("lane", func(o Outcome) { second = o })
	rig.k.RunFor(sim.Second)
	if first != OutcomeGranted {
		t.Fatalf("first = %v", first)
	}
	if second != OutcomeDenied {
		t.Fatalf("second = %v, want denied while held", second)
	}
}

func TestAgreementReleaseAllowsNext(t *testing.T) {
	rig := newAgreementRig(t, 4, 3, 0)
	var first, second Outcome
	rig.nodes[0].Request("lane", func(o Outcome) { first = o })
	rig.k.RunFor(sim.Second)
	rig.nodes[0].Release("lane")
	rig.k.RunFor(sim.Second)
	rig.nodes[2].Request("lane", func(o Outcome) { second = o })
	rig.k.RunFor(sim.Second)
	if first != OutcomeGranted || second != OutcomeGranted {
		t.Fatalf("outcomes = %v, %v", first, second)
	}
}

func TestAgreementConcurrentRequestsAtMostOne(t *testing.T) {
	// The core safety property of use case VI-A3: at most one vehicle may
	// hold the lane-change resource, under concurrent requests.
	for seed := int64(10); seed < 30; seed++ {
		rig := newAgreementRig(t, seed, 5, 0)
		outcomes := make([]Outcome, 5)
		for i := range rig.nodes {
			i := i
			rig.nodes[i].Request("lane", func(o Outcome) { outcomes[i] = o })
		}
		rig.k.RunFor(2 * sim.Second)
		holders := 0
		for _, n := range rig.nodes {
			if n.Holds("lane") {
				holders++
			}
		}
		if holders > 1 {
			t.Fatalf("seed %d: %d concurrent holders (outcomes %v)", seed, holders, outcomes)
		}
	}
}

func TestAgreementLossCausesAbortNotDoubleGrant(t *testing.T) {
	// Under heavy loss, requests may time out — but two nodes must never
	// both hold the resource.
	for seed := int64(40); seed < 55; seed++ {
		rig := newAgreementRig(t, seed, 4, 0.5)
		for i := range rig.nodes {
			rig.nodes[i].Request("lane", func(Outcome) {})
		}
		rig.k.RunFor(2 * sim.Second)
		holders := 0
		for _, n := range rig.nodes {
			if n.Holds("lane") {
				holders++
			}
		}
		if holders > 1 {
			t.Fatalf("seed %d: loss produced %d holders", seed, holders)
		}
	}
}

func TestAgreementTimeoutUnderTotalLoss(t *testing.T) {
	rig := newAgreementRig(t, 60, 3, 1.0)
	var got Outcome
	rig.nodes[0].Request("lane", func(o Outcome) { got = o })
	rig.k.RunFor(2 * sim.Second)
	if got != OutcomeTimeout {
		t.Fatalf("outcome = %v, want timeout under total loss", got)
	}
	if rig.nodes[0].Holds("lane") {
		t.Fatal("timed-out requester holds resource")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeGranted.String() != "granted" || OutcomeDenied.String() != "denied" ||
		OutcomeTimeout.String() != "timeout" {
		t.Fatal("outcome names")
	}
	if Outcome(9).String() != "outcome(9)" {
		t.Fatal(Outcome(9).String())
	}
}

func TestTrafficLightMachineAdvance(t *testing.T) {
	m := TrafficLightMachine{GreenFor: 10 * sim.Second}
	s0, ok := m.Init().(LightState)
	if !ok || s0.Phase != PhaseNSGreen || s0.Remaining != 10*sim.Second {
		t.Fatalf("init %+v", s0)
	}
	s1, ok := m.Advance(s0, 4*sim.Second).(LightState)
	if !ok || s1.Phase != PhaseNSGreen || s1.Remaining != 6*sim.Second {
		t.Fatalf("after 4s: %+v", s1)
	}
	s2, ok := m.Advance(s1, 6*sim.Second).(LightState)
	if !ok || s2.Phase != PhaseEWGreen || s2.Remaining != 10*sim.Second {
		t.Fatalf("after 10s: %+v", s2)
	}
	// Multi-cycle advance: 25 s = EW(10) + NS(10) + 5 into EW.
	s3, ok := m.Advance(s2, 25*sim.Second).(LightState)
	if !ok || s3.Phase != PhaseEWGreen || s3.Remaining != 5*sim.Second {
		t.Fatalf("after 35s: %+v", s3)
	}
	if PhaseNSGreen.String() != "NS-green" || PhaseEWGreen.String() != "EW-green" {
		t.Fatal("phase names")
	}
}

// vnodeRig wires n virtual-node hosts inside one region.
func vnodeRig(t *testing.T, seed int64, n int) (*sim.Kernel, []*VNodeHost, *wireless.Medium) {
	t.Helper()
	k := sim.NewKernel(seed)
	medium := wireless.NewMedium(k, wireless.DefaultConfig())
	cfg := DefaultVNodeConfig(wireless.Position{})
	machine := TrafficLightMachine{GreenFor: 5 * sim.Second}
	var hosts []*VNodeHost
	for i := 0; i < n; i++ {
		radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 5})
		if err != nil {
			t.Fatal(err)
		}
		pos := radio.Position
		h, err := NewVNodeHost(k, radio, machine, cfg, pos)
		if err != nil {
			t.Fatal(err)
		}
		radio.OnReceive(h.OnFrame)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return k, hosts, medium
}

func TestVNodeValidation(t *testing.T) {
	k := sim.NewKernel(1)
	medium := wireless.NewMedium(k, wireless.DefaultConfig())
	radio, _ := medium.Attach(1, wireless.Position{})
	cfg := DefaultVNodeConfig(wireless.Position{})
	cfg.LeaderTimeout = cfg.Period
	if _, err := NewVNodeHost(k, radio, TrafficLightMachine{GreenFor: sim.Second}, cfg, radio.Position); err == nil {
		t.Fatal("leaderTimeout <= period accepted")
	}
}

func TestVNodeSingleLeaderEmerges(t *testing.T) {
	k, hosts, _ := vnodeRig(t, 2, 4)
	k.RunFor(3 * sim.Second)
	leaders := 0
	for _, h := range hosts {
		if h.Leading() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	// Lowest id leads.
	if !hosts[0].Leading() {
		t.Fatal("lowest id is not the leader")
	}
	// Every host considers the node live and sees consistent state.
	for i, h := range hosts {
		if _, live := h.State(); !live {
			t.Fatalf("host %d sees dead virtual node", i)
		}
	}
}

func TestVNodeFailover(t *testing.T) {
	k, hosts, medium := vnodeRig(t, 3, 3)
	k.RunFor(2 * sim.Second)
	if !hosts[0].Leading() {
		t.Fatal("setup: host 0 not leading")
	}
	// Capture the light state just before the crash.
	st0, _ := hosts[1].State()
	s0, ok := st0.(LightState)
	if !ok {
		t.Fatalf("state type %T", st0)
	}
	hosts[0].Stop()
	medium.Detach(0)
	k.RunFor(2 * sim.Second)
	if !hosts[1].Leading() {
		t.Fatal("host 1 did not take over")
	}
	if hosts[2].Leading() {
		t.Fatal("two leaders after failover")
	}
	if hosts[1].Takeovers < 1 {
		t.Fatalf("takeovers = %d", hosts[1].Takeovers)
	}
	// State continuity: the machine continued from the replicated state
	// (phase sequence not restarted). After 2 s more, the light has
	// advanced from s0 by ~2 s, not reset to a fresh 5 s NS phase.
	st1, live := hosts[2].State()
	if !live {
		t.Fatal("virtual node dead after failover")
	}
	s1, ok := st1.(LightState)
	if !ok {
		t.Fatalf("state type %T", st1)
	}
	drift := (s0.Remaining - 2*sim.Second) - s1.Remaining
	if s0.Phase == s1.Phase && (drift > sim.Second || drift < -sim.Second) {
		t.Fatalf("state discontinuity across failover: before %+v, after %+v", s0, s1)
	}
}

func TestVNodeLeaderPreemptedByLowerID(t *testing.T) {
	k, hosts, medium := vnodeRig(t, 4, 2)
	k.RunFor(2 * sim.Second)
	// Crash host 0; host 1 takes over.
	hosts[0].Stop()
	medium.Detach(0)
	k.RunFor(2 * sim.Second)
	if !hosts[1].Leading() {
		t.Fatal("host 1 did not take over")
	}
	// Host 0 returns (new radio, same id): lower id must preempt.
	radio, err := medium.Attach(0, wireless.Position{})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := NewVNodeHost(k, radio, TrafficLightMachine{GreenFor: 5 * sim.Second},
		DefaultVNodeConfig(wireless.Position{}), radio.Position)
	if err != nil {
		t.Fatal(err)
	}
	radio.OnReceive(h0.OnFrame)
	if err := h0.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunFor(3 * sim.Second)
	if h0.Leading() && hosts[1].Leading() {
		t.Fatal("two concurrent leaders")
	}
	if !h0.Leading() {
		t.Fatal("returning lower id did not preempt")
	}
}

func TestVNodeOutsideRegionDoesNotLead(t *testing.T) {
	k := sim.NewKernel(5)
	medium := wireless.NewMedium(k, wireless.DefaultConfig())
	cfg := DefaultVNodeConfig(wireless.Position{})
	radio, err := medium.Attach(1, wireless.Position{X: 5000})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewVNodeHost(k, radio, TrafficLightMachine{GreenFor: sim.Second}, cfg, radio.Position)
	if err != nil {
		t.Fatal(err)
	}
	radio.OnReceive(h.OnFrame)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunFor(3 * sim.Second)
	if h.Leading() {
		t.Fatal("out-of-region host became leader")
	}
	if _, live := h.State(); live {
		t.Fatal("out-of-region host sees live virtual node with no leader")
	}
}
