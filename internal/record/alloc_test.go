package record

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/pipeline"
	"mavfi/internal/testutil"
	"mavfi/internal/trace"
)

// TestAppendZeroAlloc pins the writer's tick-path contract: Append on an
// event-less sample allocates nothing. The chunk size is made larger than
// the run so no flush (and hence no background compression, which
// AllocsPerRun would also count — it measures all goroutines) happens during
// the measurement window.
func TestAppendZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	h, err := NewHeader(pipeline.Config{World: testWorld()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, Options{ChunkSamples: 1 << 20, SnapshotEvery: math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		w.Append(trace.Sample{
			T:   float64(i) * 0.1,
			Pos: geom.Vec3{X: float64(i), Y: 1, Z: 2.5},
			Vel: geom.Vec3{X: 1},
			Yaw: 0.3,
		})
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f times per sample on the tick path, want 0", allocs)
	}
}

// TestPooledGzipWriterMatchesNew pins what compressor reuse rests on: a
// pooled compressor that has already compressed other data writes exactly
// the bytes a new one at the same level writes, at every level, and an
// invalid level still reports gzip's error.
func TestPooledGzipWriterMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(rng.Intn(16)) // compressible, like a tick chunk
	}
	other := make([]byte, 16<<10)
	for i := range other {
		other[i] = byte(rng.Intn(256))
	}
	compress := func(zw *gzip.Writer, data []byte) {
		t.Helper()
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		var fresh, used, pooled bytes.Buffer
		zw, err := gzip.NewWriterLevel(&fresh, level)
		if err != nil {
			t.Fatal(err)
		}
		compress(zw, payload)

		zw, err = getGzipWriter(&used, level)
		if err != nil {
			t.Fatal(err)
		}
		compress(zw, other)
		putGzipWriter(zw, level)
		zw, err = getGzipWriter(&pooled, level)
		if err != nil {
			t.Fatal(err)
		}
		compress(zw, payload)
		putGzipWriter(zw, level)
		if !bytes.Equal(fresh.Bytes(), pooled.Bytes()) {
			t.Errorf("level %d: pooled compressor wrote %d bytes unlike a new one's %d", level, pooled.Len(), fresh.Len())
		}
	}
	if _, err := getGzipWriter(io.Discard, gzip.BestCompression+1); err == nil {
		t.Error("invalid gzip level accepted")
	}
}
