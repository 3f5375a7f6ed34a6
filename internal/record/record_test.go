package record

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mavfi/internal/campaign"
	"mavfi/internal/detect"
	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/trace"
)

// testWorld returns a deterministic sparse world (shared across subtests;
// worlds are read-only once queried).
func testWorld() *env.World {
	return env.Sparse(rand.New(rand.NewSource(42)))
}

// recordMission records one mission into memory and decodes it back.
func recordMission(t *testing.T, cfg pipeline.Config) (*Mission, pipeline.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	res, err := RunRecorded(cfg, &buf)
	if err != nil {
		t.Fatalf("RunRecorded: %v", err)
	}
	m, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return m, res, buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	m, res, _ := recordMission(t, cfg)

	if !m.Complete {
		t.Fatal("recording not complete")
	}
	if m.Header.Seed != 3 || m.Header.World.Name != "Sparse" {
		t.Errorf("header = %+v", m.Header)
	}
	if m.Header.TickS != 0.1 || m.Header.MaxMissionS != 180 || m.Header.CruiseAlt != 2.5 {
		t.Errorf("header did not capture normalized defaults: %+v", m.Header)
	}
	if m.Header.Platform.Name != "i9-9940X" {
		t.Errorf("platform = %q", m.Header.Platform.Name)
	}
	if len(m.Header.World.Obstacles) != len(cfg.World.Obstacles) {
		t.Errorf("world spec has %d obstacles, want %d", len(m.Header.World.Obstacles), len(cfg.World.Obstacles))
	}

	// The decoded samples must equal the mission's own trace exactly.
	if res.Trace == nil {
		t.Fatal("RunRecorded did not set Record")
	}
	if len(m.Samples) != len(res.Trace.Samples) {
		t.Fatalf("decoded %d samples, trace has %d", len(m.Samples), len(res.Trace.Samples))
	}
	for i := range m.Samples {
		if m.Samples[i] != res.Trace.Samples[i] {
			t.Fatalf("sample %d: decoded %+v, trace %+v", i, m.Samples[i], res.Trace.Samples[i])
		}
	}
	if m.Footer.Result != newResultRecord(res) {
		t.Errorf("footer result %+v != mission result", m.Footer.Result)
	}

	// Events index matches the trace's tagged samples.
	tagged := res.Trace.Events()
	if len(m.Events) != len(tagged) {
		t.Fatalf("events index has %d entries, trace has %d tagged samples", len(m.Events), len(tagged))
	}
	for i, e := range m.Events {
		if e.Tags != tagged[i].Event || e.T != tagged[i].T {
			t.Errorf("event %d = %+v, want tag %q at t=%.2f", i, e, tagged[i].Event, tagged[i].T)
		}
		if s := m.Samples[e.Tick]; s.Event != e.Tags {
			t.Errorf("event %d points at tick %d with tag %q", i, e.Tick, s.Event)
		}
	}

	// Snapshots are consistent with the sample stream.
	if len(m.Snapshots) == 0 {
		t.Fatal("no snapshot frames")
	}
	last := m.Snapshots[len(m.Snapshots)-1]
	if last.Samples != len(m.Samples) {
		t.Errorf("final snapshot covers %d samples, want %d", last.Samples, len(m.Samples))
	}
	for _, s := range m.Snapshots {
		ref := m.Samples[s.Samples-1]
		if s.T != ref.T || s.Pos != ref.Pos || s.Yaw != ref.Yaw {
			t.Errorf("snapshot %+v disagrees with sample %d %+v", s, s.Samples-1, ref)
		}
	}
	if got, want := last.PathLen, m.Trace().PathLength(); got != want {
		t.Errorf("final snapshot path length %v, trace says %v", got, want)
	}
}

func TestVerifyNominalAndFaults(t *testing.T) {
	w := testWorld()
	kf := &faultinject.Plan{Kernel: faultinject.KernelPlanner, Index: 200, Bit: 62}
	sf := &faultinject.StatePlan{State: faultinject.StateWpX, Time: 12, Bit: 61}
	cases := map[string]pipeline.Config{
		"nominal":     {World: w, Seed: 3},
		"kernelfault": {World: w, Seed: 5, KernelFault: kf},
		"statefault":  {World: w, Seed: 5, StateFault: sf},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			m, res, _ := recordMission(t, cfg)
			if name != "nominal" && !res.Injected {
				t.Fatal("fault did not fire; test misconfigured")
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyWithDetector(t *testing.T) {
	// A minimally trained online GAD: enough to alarm deterministically and
	// to exercise the detector round-trip (serialized pre-mission state must
	// replay bit-identically, including online Welford updates in flight).
	gad := detect.NewGAD(4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var d [detect.NumStates]float64
		for j := range d {
			d[j] = rng.NormFloat64() * 0.05
		}
		gad.Train(d)
	}
	sf := &faultinject.StatePlan{State: faultinject.StateWpY, Time: 15, Bit: 62}
	cfg := pipeline.Config{World: testWorld(), Seed: 6, StateFault: sf, Detector: gad}
	m, res, _ := recordMission(t, cfg)
	if m.Header.Detector == nil || m.Header.Detector.Kind != "gad" {
		t.Fatalf("detector not embedded in header: %+v", m.Header.Detector)
	}
	if res.Alarms == 0 {
		t.Log("note: no alarms fired (still a valid determinism check)")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify with detector: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	m, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the decoded canonical stream (as if the log were edited
	// after the digest was forged to match): Verify must catch it.
	m.canonical[len(m.canonical)/2] ^= 0x40
	if err := m.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered tick stream")
	} else if !strings.Contains(err.Error(), "diverged at tick") {
		t.Fatalf("unexpected verify error: %v", err)
	}

	// A flipped byte on disk fails integrity already at Read.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)/3] ^= 0x01
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("Read accepted a corrupted file")
	}
}

func TestReadTruncated(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Cut mid-file: either a clean frame boundary (no footer → ErrIncomplete)
	// or a torn frame (truncation error). Both must be flagged.
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		cut := int(float64(len(raw)) * frac)
		_, err := Read(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("Read accepted a file truncated at %d/%d bytes", cut, len(raw))
		}
	}

	// Truncating exactly at the last frame boundary (dropping only the
	// footer) must yield ErrIncomplete with the prefix decoded.
	m, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	// Find the footer frame: re-scan frames to locate its start.
	noFooter := truncateFooter(t, raw)
	pm, err := Read(bytes.NewReader(noFooter))
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("footer-less recording: err = %v, want ErrIncomplete", err)
	}
	if pm == nil || len(pm.Samples) == 0 {
		t.Fatal("footer-less recording did not return the decoded prefix")
	}
	if pm.Complete {
		t.Fatal("footer-less recording marked complete")
	}
	if err := pm.Verify(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Verify on incomplete recording: %v", err)
	}
}

// truncateFooter returns raw with its final (footer) frame removed.
func truncateFooter(t *testing.T, raw []byte) []byte {
	t.Helper()
	r := bytes.NewReader(raw)
	magic := make([]byte, len(Magic)+1)
	if _, err := r.Read(magic); err != nil {
		t.Fatal(err)
	}
	lastStart := len(raw)
	for {
		off := len(raw) - r.Len()
		kind, _, err := readFrame(r)
		if err != nil {
			break
		}
		if kind == frameFooter {
			lastStart = off
		}
	}
	return raw[:lastStart]
}

func TestCampaignRecordingWorkerWidthIdentical(t *testing.T) {
	w := testWorld()
	makeCfg := func(i int) pipeline.Config {
		return pipeline.Config{World: w, Seed: 100 + int64(i)}
	}
	const n = 3
	dirs := map[int]string{1: t.TempDir(), 3: t.TempDir()}
	outs := map[int]*campaign.Outcome{}
	for workers, dir := range dirs {
		r := campaign.New(campaign.WithWorkers(workers))
		out, err := RunCampaign(context.Background(), r, dir, "cell", n, makeCfg)
		if err != nil {
			t.Fatalf("RunCampaign(workers=%d): %v", workers, err)
		}
		outs[workers] = out
	}
	if got, want := outs[1].Campaign.Results, outs[3].Campaign.Results; len(got) != len(want) {
		t.Fatalf("campaign sizes differ: %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("mission %d metrics differ across worker widths", i)
			}
		}
	}
	for i := 0; i < n; i++ {
		a, err := os.ReadFile(MissionPath(dirs[1], i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(MissionPath(dirs[3], i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("mission %d recording differs between 1 and 3 workers", i)
		}
		m, err := Open(MissionPath(dirs[1], i))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("mission %d: %v", i, err)
		}
	}

	infos, err := ScanDir(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != n {
		t.Fatalf("ScanDir found %d recordings, want %d", len(infos), n)
	}
	for i, info := range infos {
		if !info.Complete {
			t.Errorf("recording %d scanned as incomplete", i)
		}
		if info.Footer.Samples == 0 || len(info.Snapshots) == 0 {
			t.Errorf("recording %d scan missing footer/snapshots: %+v", i, info)
		}
		if got := info.Footer.Result.Metrics(); got != outs[1].Campaign.Results[i] {
			t.Errorf("recording %d footer metrics diverge from campaign aggregate", i)
		}
	}
}

func TestChunkingDoesNotAffectCanonicalStream(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	var a, b bytes.Buffer
	if _, err := RunRecordedOptions(cfg, &a, Options{ChunkSamples: 16, SnapshotEvery: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunRecordedOptions(cfg, &b, Options{ChunkSamples: 1024, SnapshotEvery: 4096}); err != nil {
		t.Fatal(err)
	}
	ma, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Read(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Canonical(), mb.Canonical()) {
		t.Fatal("canonical stream depends on chunking options")
	}
	if ma.Footer.Digest != mb.Footer.Digest {
		t.Fatal("digest depends on chunking options")
	}
}

func TestRecordingDoesNotPerturbMission(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	plain := pipeline.RunMission(cfg)
	var buf bytes.Buffer
	rec, err := RunRecorded(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != rec.Metrics || plain.Plans != rec.Plans || plain.PlanFails != rec.PlanFails {
		t.Fatalf("recording perturbed the mission:\nplain %+v\nrec   %+v", plain.Metrics, rec.Metrics)
	}
}

func TestNewHeaderRejectsUnrecordable(t *testing.T) {
	if _, err := NewHeader(pipeline.Config{World: testWorld(), Counter: faultinject.NewCounter()}); err == nil {
		t.Error("NewHeader accepted a calibration config")
	}
	if _, err := NewHeader(pipeline.Config{}); err == nil {
		t.Error("NewHeader accepted a world-less config")
	}
	bad := fakeDetector{}
	if _, err := NewHeader(pipeline.Config{World: testWorld(), Detector: bad}); err == nil {
		t.Error("NewHeader accepted an unserializable detector")
	}
}

type fakeDetector struct{}

func (fakeDetector) Name() string { return "fake" }
func (fakeDetector) Reset()       {}
func (fakeDetector) Observe(t float64, deltas [detect.NumStates]float64) []detect.Recovery {
	return nil
}

// TestWriterFailureDoesNotAbortMission pins that a failing destination
// never changes the mission: whether it fails mid-mission (the budget
// outlasts the header but not the tick chunks) or before the header, the
// error surfaces and the result is the unrecorded mission's.
func TestWriterFailureDoesNotAbortMission(t *testing.T) {
	cfg := pipeline.Config{World: testWorld(), Seed: 3}
	plain := pipeline.RunMission(cfg)
	for _, budget := range []int{8 << 10, 0} {
		res, err := RunRecordedOptions(cfg, &failAfter{n: budget}, Options{ChunkSamples: 8})
		if err == nil {
			t.Fatalf("budget %d: RunRecorded did not surface the write error", budget)
		}
		if res.FlightTimeS == 0 || res.Metrics != plain.Metrics {
			t.Fatalf("budget %d: mission did not fly to completion despite writer failure: %+v", budget, res.Metrics)
		}
	}
}

// failAfter is an io.Writer that fails once its byte budget is spent — a
// synthetic disk filling mid-mission.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errors.New("synthetic disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestSampleCodecEventEdgeCases(t *testing.T) {
	long := strings.Repeat("x", 300)
	s := trace.Sample{T: 1.5, Event: long}
	enc := appendSample(nil, s)
	dec, n, err := decodeSample(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
	}
	if len(dec.Event) != maxEventBytes || dec.Event != long[:maxEventBytes] {
		t.Fatalf("long event round-tripped as %d bytes", len(dec.Event))
	}
	if _, _, err := decodeSample(enc[:10]); err == nil {
		t.Error("decodeSample accepted a truncated fixed prefix")
	}
	if _, _, err := decodeSample(enc[:sampleFixedBytes+3]); err == nil {
		t.Error("decodeSample accepted a truncated event tag")
	}
}
