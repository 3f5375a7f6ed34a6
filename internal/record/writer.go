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
	"sync/atomic"

	"mavfi/internal/geom"
	"mavfi/internal/pipeline"
	"mavfi/internal/trace"
)

// Options tune a Writer. The zero value selects the defaults; every knob
// only affects framing and buffering, never the canonical tick stream, so
// recordings made with different options still byte-verify against each
// other's replays.
type Options struct {
	// ChunkSamples is the number of samples per compressed chunk frame
	// (default 256). Larger chunks compress better; smaller chunks bound
	// the data lost if a writer dies mid-mission.
	ChunkSamples int
	// SnapshotEvery is the snapshot-frame cadence in samples (default
	// 512).
	SnapshotEvery int
	// QueueDepth is the number of filled chunk buffers that may wait for
	// the compression goroutine (default 4). When the queue is full the
	// tick path blocks — bounded memory, applied as backpressure.
	QueueDepth int
	// GzipLevel is the chunk compression level (default gzip.BestSpeed —
	// the tick stream is small and the writer must keep up with the
	// mission loop). Go's gzip output is deterministic for a fixed level,
	// which is what makes whole recordings comparable byte-for-byte across
	// campaign worker widths.
	GzipLevel int
}

func (o Options) withDefaults() Options {
	if o.ChunkSamples <= 0 {
		o.ChunkSamples = 256
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 512
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.GzipLevel == 0 {
		o.GzipLevel = gzip.BestSpeed
	}
	return o
}

// job is one unit handed to the compression goroutine: a chunk to compress
// and frame, or a snapshot to frame as-is. The payload buffer is returned to
// the free list afterwards.
type job struct {
	kind    byte
	payload []byte
}

// Writer streams one mission's samples into a recording. It implements
// trace.Sink, so it plugs straight into pipeline.Config.Sink.
//
// Concurrency contract (the PR 4 zero-alloc recording contract, extended to
// persistence): Append runs on the mission tick path and performs no
// allocation and no compression — it serializes into a preallocated chunk
// buffer and, when the chunk fills, hands it to a single background
// goroutine over a bounded queue, taking a recycled buffer back from the
// free list. Compression and file writes happen only on that goroutine.
// Every buffer is preallocated in NewWriter, so a steady-state recorded
// tick allocates nothing on either goroutine. If the background writer
// falls behind, the tick path blocks on the free list once QueueDepth
// chunks are in flight (bounded queueing, never unbounded growth); if it
// fails (disk full), the writer latches the error, Append becomes a cheap
// no-op, and Close reports what happened.
//
// Append must be called from one goroutine at a time (the mission loop);
// Writer is not a concurrent sink for multiple missions — campaigns give
// each mission its own Writer and file.
type Writer struct {
	opts Options
	dst  io.Writer

	// Tick-path state (single goroutine).
	cur          []byte
	curSamples   int
	samples      int
	payloadBytes int
	lastT        float64
	lastPos      geom.Vec3
	lastYaw      float64
	pathLen      float64
	digest       hash.Hash64
	events       []Event

	// Handoff to the compression goroutine.
	work chan job
	free chan []byte
	wg   sync.WaitGroup

	// failed flips once on the first background error; the tick path polls
	// it cheaply and stops recording. The error itself is read after the
	// goroutine exits (Close), so it needs no lock of its own.
	failed atomic.Bool
	err    error

	result *ResultRecord
	closed bool
}

// NewWriter writes the magic and header frame to dst and starts the
// background compression goroutine. The caller must Close the writer to
// flush the final chunk and write the events and footer frames; dst is not
// closed (the caller owns the file).
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
	if err := writeFrame(dst, frameHeader, hdr); err != nil {
		return nil, err
	}

	w := &Writer{
		opts:   opts,
		dst:    dst,
		digest: fnv.New64a(),
		work:   make(chan job, opts.QueueDepth),
		free:   make(chan []byte, opts.QueueDepth+1),
	}
	// One buffer per queue slot plus the current chunk: the tick path can
	// always take a fresh buffer without allocating, and total buffered
	// memory is bounded by (QueueDepth+2) chunks.
	bufCap := opts.ChunkSamples*sampleFixedBytes + maxSampleBytes
	if bufCap < snapshotBytes {
		bufCap = snapshotBytes
	}
	for i := 0; i < opts.QueueDepth+1; i++ {
		w.free <- make([]byte, 0, bufCap)
	}
	w.cur = make([]byte, 0, bufCap)

	w.wg.Add(1)
	go w.compressLoop()
	return w, nil
}

// writeFrame emits one [type][len][payload] frame.
func writeFrame(dst io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := dst.Write(hdr[:]); err != nil {
		return fmt.Errorf("record: writing frame header: %w", err)
	}
	if _, err := dst.Write(payload); err != nil {
		return fmt.Errorf("record: writing frame payload: %w", err)
	}
	return nil
}

// Append implements trace.Sink: serialize one finalized sample onto the
// current chunk, flushing to the background goroutine at chunk and snapshot
// boundaries. See the Writer doc comment for the concurrency contract.
func (w *Writer) Append(s trace.Sample) {
	if w.closed || w.failed.Load() {
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
		w.enqueueSnapshot()
	}
}

// flushChunk hands the current chunk to the compression goroutine and takes
// a recycled buffer. No-op on an empty chunk.
func (w *Writer) flushChunk() {
	if w.curSamples == 0 {
		return
	}
	w.work <- job{kind: frameChunk, payload: w.cur}
	w.cur = <-w.free
	w.curSamples = 0
}

// enqueueSnapshot emits a snapshot frame through the same queue (ordering
// with chunk frames is preserved: one goroutine drains in FIFO order).
func (w *Writer) enqueueSnapshot() {
	buf := <-w.free
	buf = appendSnapshot(buf, w.snapshot())
	w.work <- job{kind: frameSnapshot, payload: buf}
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

// gzipWriters pools chunk compressors per level, indexed by level minus
// gzip.HuffmanOnly: a compressor's state runs to hundreds of kilobytes, and
// a Reset one writes exactly the bytes a new one would, so missions share
// them instead of each allocating its own.
var gzipWriters [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

// getGzipWriter returns a compressor at level writing to dst, from the pool
// when it holds one; an invalid level reports gzip's error.
func getGzipWriter(dst io.Writer, level int) (*gzip.Writer, error) {
	if level >= gzip.HuffmanOnly && level <= gzip.BestCompression {
		if zw, ok := gzipWriters[level-gzip.HuffmanOnly].Get().(*gzip.Writer); ok {
			zw.Reset(dst)
			return zw, nil
		}
	}
	return gzip.NewWriterLevel(dst, level)
}

// putGzipWriter returns a compressor from getGzipWriter to the pool,
// detached from its last destination.
func putGzipWriter(zw *gzip.Writer, level int) {
	zw.Reset(io.Discard)
	gzipWriters[level-gzip.HuffmanOnly].Put(zw)
}

// compressLoop is the background goroutine: compress chunks, frame
// snapshots, recycle buffers. On a write error it latches failure and keeps
// draining (recycling buffers) so the tick path can never deadlock.
func (w *Writer) compressLoop() {
	defer w.wg.Done()
	var buf bytes.Buffer
	zw, zerr := getGzipWriter(&buf, w.opts.GzipLevel)
	if zerr != nil {
		w.fail(zerr)
	} else {
		defer putGzipWriter(zw, w.opts.GzipLevel)
	}
	for j := range w.work {
		if !w.failed.Load() {
			switch j.kind {
			case frameChunk:
				buf.Reset()
				zw.Reset(&buf)
				if _, err := zw.Write(j.payload); err != nil {
					w.fail(err)
				} else if err := zw.Close(); err != nil {
					w.fail(err)
				} else if err := writeFrame(w.dst, frameChunk, buf.Bytes()); err != nil {
					w.fail(err)
				}
			case frameSnapshot:
				if err := writeFrame(w.dst, frameSnapshot, j.payload); err != nil {
					w.fail(err)
				}
			}
		}
		w.free <- j.payload[:0]
	}
}

// fail latches the first background error.
func (w *Writer) fail(err error) {
	if !w.failed.Swap(true) {
		w.err = err
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

// Close flushes the final chunk, stops the compression goroutine, writes a
// final snapshot plus the events and footer frames, and returns the first
// error the recording hit (nil for a complete, verifiable recording). Close
// does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushChunk()
	if w.samples > 0 && w.samples%w.opts.SnapshotEvery != 0 {
		// Final snapshot so the last persisted state is always summarised.
		w.enqueueSnapshot()
	}
	close(w.work)
	w.wg.Wait()
	if w.failed.Load() {
		return w.err
	}

	if len(w.events) > 0 {
		ev, err := json.Marshal(w.events)
		if err != nil {
			return fmt.Errorf("record: encoding events: %w", err)
		}
		if err := writeFrame(w.dst, frameEvents, ev); err != nil {
			return err
		}
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
	return writeFrame(w.dst, frameFooter, ft)
}
