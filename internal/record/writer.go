package record

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sync"

	"mavfi/internal/geom"
	"mavfi/internal/pipeline"
	"mavfi/internal/trace"
)

// Options tune a Writer. The zero value selects the defaults; both knobs
// only affect framing, never the canonical tick stream, so recordings made
// with different options still byte-verify against each other's replays.
type Options struct {
	// ChunkSamples is the number of samples per compressed chunk frame
	// (default 256). Larger chunks compress better; smaller chunks bound
	// the data lost if a writer dies mid-mission.
	ChunkSamples int
	// SnapshotEvery is the snapshot-frame cadence in samples (default
	// 512).
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.ChunkSamples <= 0 {
		o.ChunkSamples = 256
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 512
	}
	return o
}

// gzipWriters pools chunk compressors, all at gzip.BestSpeed (the tick
// stream is small and compression runs on the mission loop). A compressor's
// state runs to hundreds of kilobytes, and a Reset one writes exactly the
// bytes a new one would, so missions share them instead of each allocating
// its own. Go's gzip output is deterministic for a fixed level, which is
// what makes whole recordings comparable byte-for-byte across campaign
// worker widths.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level cannot fail
	return zw
}}

// Writer streams one mission's samples into a recording. It implements
// trace.Sink, so it plugs straight into pipeline.Config.Sink.
//
// Concurrency contract: everything runs on the caller's goroutine (the
// mission loop). Append serializes each sample into a preallocated chunk
// buffer; the Append that fills a chunk compresses it with the writer's
// pooled compressor into a reused buffer and writes the frame, and the one
// that reaches a snapshot boundary writes the snapshot frame from a fixed
// array. Every buffer is sized in NewWriter, so a steady-state recorded tick
// allocates nothing, compressing ones included. The first write error is
// latched: Append becomes a cheap no-op, the mission flies on, and Close
// reports the error.
//
// Append must be called from one goroutine at a time (the mission loop);
// Writer is not a concurrent sink for multiple missions — campaigns give
// each mission its own Writer and file.
type Writer struct {
	opts Options
	dst  io.Writer

	cur          []byte // the current chunk's encoded samples
	curSamples   int
	samples      int
	payloadBytes int
	lastT        float64
	lastPos      geom.Vec3
	lastYaw      float64
	pathLen      float64
	digest       hash.Hash64
	events       []Event

	zw   *gzip.Writer // from gzipWriters, returned by Close
	zbuf bytes.Buffer // one compressed chunk
	hdr  [5]byte      // one frame's type and length
	snap [snapshotBytes]byte

	err    error // the first compression or write error
	result *ResultRecord
	closed bool
}

// NewWriter writes the magic and header frame to dst. The caller must Close
// the writer to flush the final chunk and write the events and footer
// frames; dst is not closed (the caller owns the file).
func NewWriter(dst io.Writer, h Header, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	h.Version = Version
	h.SnapshotEvery = opts.SnapshotEvery

	if _, err := io.WriteString(dst, Magic); err != nil {
		return nil, fmt.Errorf("record: writing magic: %w", err)
	}
	if _, err := dst.Write([]byte{Version}); err != nil {
		return nil, fmt.Errorf("record: writing version: %w", err)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("record: encoding header: %w", err)
	}
	w := &Writer{opts: opts, dst: dst, digest: fnv.New64a()}
	if w.writeFrame(frameHeader, hdr); w.err != nil {
		return nil, w.err
	}
	// A chunk never outgrows cur, and its compressed form never outgrows
	// zbuf: deflate falls back to stored blocks, which add 5 bytes per
	// 64 KiB, and gzip adds an 18-byte header and trailer.
	bufCap := opts.ChunkSamples*sampleFixedBytes + maxSampleBytes
	w.cur = make([]byte, 0, bufCap)
	w.zbuf.Grow(bufCap + bufCap/4096 + 64)
	w.zw = gzipWriters.Get().(*gzip.Writer)
	return w, nil
}

// writeFrame emits one [type][len][payload] frame, latching the first write
// error; once one is latched it writes nothing.
func (w *Writer) writeFrame(kind byte, payload []byte) {
	if w.err != nil {
		return
	}
	w.hdr[0] = kind
	binary.LittleEndian.PutUint32(w.hdr[1:], uint32(len(payload)))
	if _, err := w.dst.Write(w.hdr[:]); err != nil {
		w.err = fmt.Errorf("record: writing frame header: %w", err)
	} else if _, err := w.dst.Write(payload); err != nil {
		w.err = fmt.Errorf("record: writing frame payload: %w", err)
	}
}

// Append implements trace.Sink: serialize one finalized sample onto the
// current chunk, writing the chunk and snapshot frames at their boundaries.
// See the Writer doc comment for the concurrency contract.
func (w *Writer) Append(s trace.Sample) {
	if w.closed || w.err != nil {
		return
	}
	start := len(w.cur)
	w.cur = appendSample(w.cur, s)
	w.digest.Write(w.cur[start:])
	w.payloadBytes += len(w.cur) - start
	w.curSamples++
	if w.samples > 0 {
		w.pathLen += s.Pos.Dist(w.lastPos)
	}
	w.lastT, w.lastPos, w.lastYaw = s.T, s.Pos, s.Yaw
	w.samples++
	if s.Event != "" {
		// Event ticks are rare (a handful per mission); the index append
		// is the one recording path allowed to allocate.
		w.events = append(w.events, Event{Tick: w.samples - 1, T: s.T, Tags: s.Event})
	}
	if w.curSamples >= w.opts.ChunkSamples || cap(w.cur)-len(w.cur) < maxSampleBytes {
		w.flushChunk()
	}
	if w.samples%w.opts.SnapshotEvery == 0 {
		// Snapshot after flushing the chunk that contains its last sample,
		// so a snapshot frame always summarises fully-persisted data.
		w.flushChunk()
		w.writeFrame(frameSnapshot, appendSnapshot(w.snap[:0], w.snapshot()))
	}
}

// flushChunk compresses the current chunk and writes it as one frame, then
// empties it. No-op on an empty chunk.
func (w *Writer) flushChunk() {
	if w.curSamples == 0 {
		return
	}
	if w.err == nil {
		w.zbuf.Reset()
		w.zw.Reset(&w.zbuf)
		if _, err := w.zw.Write(w.cur); err != nil {
			w.err = err
		} else if err := w.zw.Close(); err != nil {
			w.err = err
		}
		w.writeFrame(frameChunk, w.zbuf.Bytes())
	}
	w.cur = w.cur[:0]
	w.curSamples = 0
}

// snapshot captures the current cumulative recording state.
func (w *Writer) snapshot() Snapshot {
	return Snapshot{
		Samples: w.samples,
		T:       w.lastT,
		Pos:     w.lastPos,
		Yaw:     w.lastYaw,
		PathLen: w.pathLen,
	}
}

// SetResult attaches the mission's outcome for the footer frame; call it
// after the mission returns and before Close.
func (w *Writer) SetResult(res pipeline.Result) {
	r := newResultRecord(res)
	w.result = &r
}

// Samples returns the number of samples appended so far.
func (w *Writer) Samples() int { return w.samples }

// Close flushes the final chunk, writes a final snapshot plus the events and
// footer frames, returns the compressor to the pool, and returns the first
// error the recording hit (nil for a complete, verifiable recording). Close
// does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushChunk()
	w.zw.Reset(io.Discard)
	gzipWriters.Put(w.zw)
	w.zw = nil
	if w.samples > 0 && w.samples%w.opts.SnapshotEvery != 0 {
		// Final snapshot so the last persisted state is always summarised.
		w.writeFrame(frameSnapshot, appendSnapshot(w.snap[:0], w.snapshot()))
	}
	if len(w.events) > 0 {
		ev, err := json.Marshal(w.events)
		if err != nil {
			return fmt.Errorf("record: encoding events: %w", err)
		}
		w.writeFrame(frameEvents, ev)
	}
	f := Footer{
		Samples:      w.samples,
		PayloadBytes: w.payloadBytes,
		Digest:       fmt.Sprintf("%016x", w.digest.Sum64()),
	}
	if w.result != nil {
		f.Result = *w.result
	}
	ft, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("record: encoding footer: %w", err)
	}
	w.writeFrame(frameFooter, ft)
	return w.err
}
