package world

import (
	"fmt"
	"math"
)

// RingPartition splits a ring road of the given circumference into n
// contiguous arcs of equal length — the spatial shards of a partitioned
// highway. Shard i owns positions [i*arc, (i+1)*arc); vehicles crossing an
// arc boundary are handed off to the neighboring shard at the next
// synchronization window edge.
type RingPartition struct {
	Length float64
	Shards int
}

// NewRingPartition validates and builds a ring partition. The arc length
// must be at least minReach (the radio range): that guarantees a frame
// sent anywhere in a shard can only reach receivers in the same or an
// adjacent shard, so a beacon's delivery reaches into its neighbors'
// arcs only.
func NewRingPartition(length float64, shards int, minReach float64) (RingPartition, error) {
	if length <= 0 {
		return RingPartition{}, fmt.Errorf("world: ring length %v must be positive", length)
	}
	if shards < 1 {
		return RingPartition{}, fmt.Errorf("world: shard count %d must be at least 1", shards)
	}
	if shards > 1 && length/float64(shards) < minReach {
		return RingPartition{}, fmt.Errorf(
			"world: arc length %.0f m below radio reach %.0f m: a frame could skip over a whole shard, breaking the adjacent-shard lookahead bound (use at most %d shards)",
			length/float64(shards), minReach, int(length/minReach))
	}
	return RingPartition{Length: length, Shards: shards}, nil
}

// ArcLength returns the length of one arc.
func (p RingPartition) ArcLength() float64 { return p.Length / float64(p.Shards) }

// ArcStart returns the start position of shard i's arc.
func (p RingPartition) ArcStart(i int) float64 { return float64(i) * p.ArcLength() }

// ShardOf returns the shard owning position x (wrapped onto the ring).
func (p RingPartition) ShardOf(x float64) int {
	x = math.Mod(x, p.Length)
	if x < 0 {
		x += p.Length
	}
	i := int(x / p.ArcLength())
	if i >= p.Shards { // x == Length after float wobble
		i = p.Shards - 1
	}
	return i
}

// Adjacent reports whether shards i and j share a boundary on the ring
// (every shard is adjacent to itself).
func (p RingPartition) Adjacent(i, j int) bool {
	if i == j {
		return true
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	return d == 1 || d == p.Shards-1
}

// QuadrantPartition splits the plane around an intersection center into
// four quadrants — the natural sharding of the signalized-intersection
// world, where each approach road lives in its own quadrant and vehicles
// hand off as they cross the stop line.
type QuadrantPartition struct {
	CenterX float64
	CenterY float64
}

// Shards returns the number of quadrants.
func (QuadrantPartition) Shards() int { return 4 }

// ShardOf returns the quadrant index of (x, y): 0=NE, 1=NW, 2=SW, 3=SE,
// with boundary points assigned to the lower index so ownership is total.
func (p QuadrantPartition) ShardOf(x, y float64) int {
	east := x >= p.CenterX
	north := y >= p.CenterY
	switch {
	case east && north:
		return 0
	case !east && north:
		return 1
	case !east && !north:
		return 2
	default:
		return 3
	}
}

// Adjacent reports whether two quadrants share an axis boundary (diagonal
// quadrants meet only at the center point and are not adjacent).
func (p QuadrantPartition) Adjacent(i, j int) bool {
	if i == j {
		return true
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	return d == 1 || d == 3
}
