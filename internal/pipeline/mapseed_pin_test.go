package pipeline_test

import (
	"testing"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/pipeline"
)

// TestBuildMapSeedPinnedBytes pins the golden maps of the four preset
// worlds, each generated as the campaign matrix generates it, to absolute
// map digests. The digest covers every log-odds value and the summary
// counts. Every other seed check is relative (the folded build against
// repeated InsertCloud, a fork against a rebuild, served against CLI), so a
// store change that moved every golden map in step would pass them all;
// these values would not move.
func TestBuildMapSeedPinnedBytes(t *testing.T) {
	pins := []struct {
		world  string
		digest uint64
	}{
		{"sparse", 0xf7c33637a66f91e8},
		{"dense", 0xfb915176cf06e310},
		{"factory", 0x1961e957c405b162},
		{"farm", 0x0004d03cecaaba65},
	}
	for _, p := range pins {
		w, err := matrix.World(p.world)
		if err != nil {
			t.Fatal(err)
		}
		if got := pipeline.BuildMapSeed(w).Digest(); got != p.digest {
			t.Errorf("%s: digest %016x, pinned %016x", p.world, got, p.digest)
		}
	}
}
