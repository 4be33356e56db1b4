package world

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"karyon/internal/vehicle"
)

// eachInRangeSearchMod is the ring walk eachInRange replaced, kept as its
// oracle: sort.Search for the first entry past x and math.Mod for every
// ring distance.
func (h *Highway) eachInRangeSearchMod(c *Car, fn func(i int)) {
	n := len(h.snap)
	if n < 2 {
		return
	}
	x := c.Body.X
	r := h.cfg.V2VRange
	if 2*r >= h.cfg.Length {
		for i := range h.snap {
			if h.snap[i].id != c.ID {
				fn(i)
			}
		}
		return
	}
	at := sort.Search(n, func(i int) bool { return h.snap[i].x > x })
	for i := 0; i < n-1; i++ {
		k := (at + i) % n
		e := &h.snap[k]
		if e.id == c.ID {
			continue
		}
		if math.Mod(e.x-x+h.cfg.Length, h.cfg.Length) > r {
			break
		}
		fn(k)
	}
	for i := 1; i <= n-1; i++ {
		k := ((at-i)%n + n) % n
		e := &h.snap[k]
		if e.id == c.ID {
			continue
		}
		if math.Mod(x-e.x+h.cfg.Length, h.cfg.Length) > r {
			break
		}
		fn(k)
	}
}

// ringWalks returns the visit sequences of eachInRange and of its oracle
// for a car with the given id at x.
func ringWalks(h *Highway, id int, x float64) (got, want []int) {
	c := &Car{ID: id, Body: vehicle.Body{X: x}}
	h.eachInRange(c, func(i int) { got = append(got, i) })
	h.eachInRangeSearchMod(c, func(i int) { want = append(want, i) })
	return got, want
}

// TestEachInRangeMatchesSearchMod checks that the inlined search and the
// cheap ring remainder visit exactly what the sort.Search and math.Mod
// walk visits, in the same order, on adversarial snapshots: equal x in
// different lanes, x = 0 and x = Length − ulp, neighbours at exactly
// V2VRange on either side and across the seam, rings with 2·range ≥
// length, and off-ring or NaN positions for the car and the entries.
func TestEachInRangeMatchesSearchMod(t *testing.T) {
	const length, r = 1000.0, 100.0
	below := math.Nextafter(length, 0)
	special := []float64{
		0, math.Copysign(0, -1), below, length, 2 * length, -1, -r, length + r,
		r, length - r, 500, 500 - r, 500 + r, math.Nextafter(500+r, 0), math.Nextafter(500+r, 2000),
		math.Nextafter(r, 0), below - r, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-300, length - 1e-13, 3 * length / 7,
	}
	rng := rand.New(rand.NewSource(7))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * length
		}
		return special[rng.Intn(len(special))]
	}
	for trial := 0; trial < 4000; trial++ {
		cfg := HighwayConfig{Length: length, V2VRange: r}
		switch trial % 5 {
		case 0:
			cfg.V2VRange = length / 2 // 2·range = length: everyone is in range
		case 1:
			cfg.V2VRange = length / 3
		}
		h := &Highway{cfg: cfg}
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			x := pick()
			for lanes := rng.Intn(3); lanes >= 0; lanes-- { // equal x in different lanes
				h.snap = append(h.snap, hwSnap{id: len(h.snap), x: x, lane: lanes})
			}
		}
		// The published snapshot is sorted by x; every seventh trial
		// shuffles it instead, since the two walks must agree on any
		// input (a NaN entry has no sorted place anyway).
		if trial%7 != 0 {
			slices.SortStableFunc(h.snap, func(a, b hwSnap) int {
				switch {
				case a.x < b.x:
					return -1
				case a.x > b.x:
					return 1
				}
				return 0
			})
		} else {
			rng.Shuffle(len(h.snap), func(i, j int) { h.snap[i], h.snap[j] = h.snap[j], h.snap[i] })
		}
		// Every entry as the sender, then strangers at adversarial x.
		for i := range h.snap {
			got, want := ringWalks(h, h.snap[i].id, h.snap[i].x)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: car %d at %v on %+v: visits %v, want %v", trial, h.snap[i].id, h.snap[i].x, h.snap, got, want)
			}
		}
		for _, x := range append(special, pick()) {
			got, want := ringWalks(h, -1, x)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: car at %v on %+v: visits %v, want %v", trial, x, h.snap, got, want)
			}
		}
	}
}

// ringMod equals math.Mod bit for bit on the fast paths' boundaries and
// beyond them.
func TestRingModMatchesMod(t *testing.T) {
	for _, length := range []float64{1000, 36000, 150000, 1e-300, math.MaxFloat64, 0, -5, math.Inf(1), math.NaN()} {
		for _, v := range []float64{
			0, math.Copysign(0, -1), length, 2 * length, math.Nextafter(length, 0), math.Nextafter(length, math.Inf(1)),
			math.Nextafter(2*length, 0), math.Nextafter(2*length, math.Inf(1)), length / 3, 1.5 * length, 3 * length,
			-length, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		} {
			got, want := ringMod(v, length), math.Mod(v, length)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("ringMod(%v, %v) = %v, math.Mod gives %v", v, length, got, want)
			}
		}
	}
}
