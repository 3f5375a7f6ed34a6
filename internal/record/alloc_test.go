package record

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/pipeline"
	"mavfi/internal/testutil"
	"mavfi/internal/trace"
)

// TestAppendZeroAlloc pins the writer's tick-path contract: Append on an
// event-less sample allocates nothing, including the Appends that compress
// and write a chunk frame and write a snapshot frame. The measured run
// appends two snapshot periods of samples under the default options, so it
// crosses four chunk boundaries and two snapshot boundaries, and it counts
// every allocation (one run, so one allocation reads 1). The warm-up run
// before it takes the first flush, where a new compressor sizes its state.
func TestAppendZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	h, err := NewHeader(pipeline.Config{World: testWorld()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(io.Discard, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	opts := Options{}.withDefaults()
	n := 2 * opts.SnapshotEvery
	if n < 2*opts.ChunkSamples {
		t.Fatalf("%d samples cross fewer than two %d-sample chunk boundaries", n, opts.ChunkSamples)
	}
	i := 0
	allocs := testing.AllocsPerRun(1, func() {
		for range n {
			i++
			w.Append(trace.Sample{
				T:   float64(i) * 0.1,
				Pos: geom.Vec3{X: float64(i), Y: 1, Z: 2.5},
				Vel: geom.Vec3{X: 1},
				Yaw: 0.3,
			})
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.0f times over %d samples on the tick path, want 0", allocs, n)
	}
}

// TestPooledGzipWriterMatchesNew pins what compressor reuse rests on: a
// pooled compressor that has already compressed other data writes exactly
// the bytes a new gzip.BestSpeed compressor writes.
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
	compress := func(zw *gzip.Writer, dst io.Writer, data []byte) {
		t.Helper()
		zw.Reset(dst)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var fresh, pooled bytes.Buffer
	zw, err := gzip.NewWriterLevel(&fresh, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	compress(zw, &fresh, payload)

	zw = gzipWriters.Get().(*gzip.Writer)
	compress(zw, io.Discard, other)
	compress(zw, &pooled, payload)
	gzipWriters.Put(zw)
	if !bytes.Equal(fresh.Bytes(), pooled.Bytes()) {
		t.Errorf("pooled compressor wrote %d bytes unlike a new one's %d", pooled.Len(), fresh.Len())
	}
}
