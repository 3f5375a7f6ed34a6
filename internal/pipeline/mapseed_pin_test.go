package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/pipeline"
)

// TestBuildMapSeedPinnedBytes pins the golden maps of the four preset
// worlds, each generated as the campaign matrix generates it, to absolute
// values: the map digest, and the sha256 and length of the serialized
// snapshot. Every other seed check is relative (the folded build against
// repeated InsertCloud, a fork against a rebuild, served against CLI), so a
// store change that moved every golden map in step would pass them all;
// these values would not move.
func TestBuildMapSeedPinnedBytes(t *testing.T) {
	pins := []struct {
		world  string
		digest uint64
		sha256 string
		length int
	}{
		{"sparse", 0xf7c33637a66f91e8, "b1f79e855f8df731f74d9b98275fe59b6bae71367400776d95dfbd0c508226ef", 2861926},
		{"dense", 0xfb915176cf06e310, "b013ad7df5c8f6dec4fd15b4af0e40e70595ceff4e99c34ba10bc0732ceaa4b6", 2029626},
		{"factory", 0x1961e957c405b162, "9b6cc4ed838e3ffb329733896add533391d31561fa210e46b4b0db2972774a71", 3526126},
		{"farm", 0x0004d03cecaaba65, "972f42b313619f282af99d94bf15c1e782b970cc4da9e54627d788c9f185dc67", 4674126},
	}
	for _, p := range pins {
		w, err := matrix.World(p.world)
		if err != nil {
			t.Fatal(err)
		}
		seed := pipeline.BuildMapSeed(w)
		if got := seed.Digest(); got != p.digest {
			t.Errorf("%s: digest %016x, pinned %016x", p.world, got, p.digest)
		}
		var buf bytes.Buffer
		if _, err := seed.Snapshot().WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", p.world, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != p.sha256 || buf.Len() != p.length {
			t.Errorf("%s: snapshot sha256 %s (%d bytes), pinned %s (%d bytes)", p.world, got, buf.Len(), p.sha256, p.length)
		}
	}
}
