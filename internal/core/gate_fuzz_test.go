package core

import (
	"math"
	"testing"

	"karyon/internal/sim"
)

// filterRef is the gate's filter over the map envelopes, as the gate
// computed it before its bounds were resolved to arrays: the reference
// for the dense Filter.
func filterRef(env Envelope, channel string, value float64) float64 {
	out := value
	if min, ok := env.Min[channel]; ok && out < min {
		out = min
	}
	if max, ok := env.Max[channel]; ok && out > max {
		out = max
	}
	return out
}

// gateChannels are the channels FuzzGateFilter bounds, plus one it never
// bounds.
var gateChannels = []string{"accel", "brake", "steer", "horn"}

// FuzzGateFilter builds random envelopes for a ladder of 1..4 levels and
// checks the gate's Filter at a random current level against filterRef
// over the same envelopes, for every channel. spec is a sequence of
// 5-byte bounds: level, channel, kind, lo, hi. Kind 0 bounds both sides,
// 1 only the minimum, 2 only the maximum (so a channel can be bounded at
// some levels only, or on one side), and 3 sets both through Gate.Bound
// after the gate is built. The output must also lie within the current
// level's bounds (ROADMAP item 4's gate property) whenever they admit any
// value at all, and the counters must count every call once.
func FuzzGateFilter(f *testing.F) {
	f.Add(uint8(3), uint8(2), 4.0, []byte{1, 0, 0, 0xe8, 4, 2, 0, 0, 0xe8, 6, 3, 0, 0, 0xe8, 10})
	f.Add(uint8(3), uint8(0), -30.0, []byte{1, 0, 1, 0xf0, 0, 2, 1, 2, 0, 8, 3, 2, 3, 0xfc, 4})
	f.Add(uint8(2), uint8(1), 9.0, []byte{2, 2, 2, 0, 12, 1, 0, 0, 0xfc, 0})
	f.Add(uint8(1), uint8(0), math.NaN(), []byte{1, 0, 0, 0xfc, 4})
	f.Add(uint8(4), uint8(3), 0.5, []byte{4, 1, 0, 8, 0xf8}) // inverted: min above max
	f.Fuzz(func(t *testing.T, levels, current uint8, value float64, spec []byte) {
		n := int(levels%4) + 1
		envs := make(map[LoS]Envelope, n)
		for l := 1; l <= n; l++ {
			envs[LoS(l)] = NewEnvelope()
		}
		type edit struct {
			level   LoS
			channel string
			lo, hi  float64
		}
		var edits []edit
		for ; len(spec) >= 5; spec = spec[5:] {
			level := LoS(int(spec[0])%n + 1)
			ch := gateChannels[int(spec[1])%(len(gateChannels)-1)]
			lo, hi := float64(int8(spec[3]))/4, float64(int8(spec[4]))/4
			env := envs[level]
			switch spec[2] % 4 {
			case 0:
				env.Bound(ch, lo, hi)
			case 1:
				env.Min[ch] = lo
			case 2:
				env.Max[ch] = hi
			case 3:
				edits = append(edits, edit{level, ch, lo, hi})
			}
		}
		k := sim.NewKernel(1)
		m, err := NewManager(k, NewRuntimeInfo(k), DefaultManagerConfig())
		if err != nil {
			t.Fatal(err)
		}
		fn, err := m.AddFunctionality("f", n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGate(fn, envs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edits {
			if err := g.Bound(e.level, e.channel, e.lo, e.hi); err != nil {
				t.Fatal(err)
			}
			envs[e.level].Bound(e.channel, e.lo, e.hi)
		}
		level := LoS(int(current)%n + 1)
		fn.Force(0, level)
		env := envs[level]
		for i, ch := range gateChannels {
			got, clamped := g.Filter(ch, value)
			want := filterRef(env, ch, value)
			if math.Float64bits(got) != math.Float64bits(want) || clamped != (want != value) {
				t.Fatalf("level %v, %s: Filter(%v) = %v, %v; the map envelopes give %v", level, ch, value, got, clamped, want)
			}
			if g.Clamped+g.Passed != int64(i+1) {
				t.Fatalf("after %d calls the gate counted %d clamped and %d passed", i+1, g.Clamped, g.Passed)
			}
			min, hasMin := env.Min[ch]
			max, hasMax := env.Max[ch]
			if math.IsNaN(value) || (hasMin && hasMax && min > max) {
				continue // no value lies within: nothing to hold the output to
			}
			if (hasMin && got < min) || (hasMax && got > max) {
				t.Fatalf("level %v, %s: Filter(%v) = %v, outside [%v, %v]", level, ch, value, got, min, max)
			}
		}
	})
}
