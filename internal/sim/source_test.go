package sim

import (
	"math/rand"
	"testing"
)

// TestSourceFloat64MatchesRand locks the value source's Float64 to
// math/rand's derivation over the same generator: a table of Sources must
// draw exactly what a table of Streams drew, so switching between them
// changes no output byte. Both sides start from several SplitSeed states,
// and again after a Restore into a state taken mid-stream.
func TestSourceFloat64MatchesRand(t *testing.T) {
	const draws = 100_000
	for _, dim := range []int64{0, 3, 6} {
		for _, entity := range []int64{0, 1, 4999} {
			src := NewSource(7, entity, dim)
			twin := src
			ref := rand.New(&twin)
			var mid uint64
			for i := 0; i < draws; i++ {
				if i == draws/2 {
					mid = src.State()
				}
				if got, want := src.Float64(), ref.Float64(); got != want {
					t.Fatalf("entity %d dim %d draw %d: Float64 %v, rand %v", entity, dim, i, got, want)
				}
			}
			if src.State() != twin.State() {
				t.Fatalf("entity %d dim %d: states diverged: %x vs %x", entity, dim, src.State(), twin.State())
			}
			// Rewind both to the middle of the run: the second half repeats.
			src.Restore(mid)
			stream := NewStream(7, entity, dim)
			stream.Restore(mid)
			for i := 0; i < draws/2; i++ {
				if got, want := src.Float64(), stream.Float64(); got != want {
					t.Fatalf("entity %d dim %d: after Restore, draw %d: Float64 %v, Stream %v", entity, dim, i, got, want)
				}
			}
			if src.State() != stream.State() {
				t.Fatalf("entity %d dim %d: after Restore, states diverged", entity, dim)
			}
		}
	}
}
