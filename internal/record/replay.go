package record

import (
	"bytes"
	"fmt"
	"io"

	"mavfi/internal/detect"
	"mavfi/internal/pipeline"
	"mavfi/internal/trace"
)

// NewHeader captures cfg as a replayable mission header: defaults resolved,
// world geometry flattened, and any detector serialized in its *pre-mission*
// state (the header must be built before the mission runs, since online
// detectors mutate during flight). Calibration-mode configurations
// (cfg.Counter != nil) and detector implementations detect cannot persist
// are rejected — they could not be replayed faithfully.
func NewHeader(cfg pipeline.Config) (Header, error) {
	if cfg.Counter != nil {
		return Header{}, fmt.Errorf("record: calibration missions (Config.Counter) are not recordable")
	}
	if cfg.World == nil {
		return Header{}, fmt.Errorf("record: Config.World is required")
	}
	cfg = cfg.Normalized()
	h := Header{
		Version:       Version,
		Seed:          cfg.Seed,
		Planner:       int(cfg.Planner),
		PlannerName:   cfg.Planner.String(),
		TickS:         cfg.TickS,
		MaxMissionS:   cfg.MaxMissionS,
		CruiseAlt:     cfg.CruiseAlt,
		Platform:      cfg.Platform,
		World:         NewWorldSpec(cfg.World),
		KernelFault:   cfg.KernelFault,
		StateFault:    cfg.StateFault,
		SensorFault:   cfg.SensorFault,
		ActuatorFault: cfg.ActuatorFault,
		WindFault:     cfg.WindFault,
		DetectOnly:    cfg.DetectOnly,
	}
	if cfg.Detector != nil {
		spec, err := newDetectorSpec(cfg.Detector)
		if err != nil {
			return Header{}, err
		}
		h.Detector = &spec
	}
	return h, nil
}

// newDetectorSpec serializes a detector through the detect model-persistence
// formats.
func newDetectorSpec(d detect.Detector) (DetectorSpec, error) {
	var buf bytes.Buffer
	switch det := d.(type) {
	case *detect.GAD:
		if err := detect.SaveGAD(&buf, det); err != nil {
			return DetectorSpec{}, fmt.Errorf("record: serializing GAD: %w", err)
		}
		return DetectorSpec{Kind: "gad", Model: buf.Bytes()}, nil
	case *detect.AAD:
		if err := detect.SaveAAD(&buf, det); err != nil {
			return DetectorSpec{}, fmt.Errorf("record: serializing AAD: %w", err)
		}
		return DetectorSpec{Kind: "aad", Model: buf.Bytes()}, nil
	default:
		return DetectorSpec{}, fmt.Errorf("record: detector %T has no persistence format", d)
	}
}

// Load re-creates the detector from its serialized model.
func (ds DetectorSpec) Load() (detect.Detector, error) {
	switch ds.Kind {
	case "gad":
		return detect.LoadGAD(bytes.NewReader(ds.Model))
	case "aad":
		return detect.LoadAAD(bytes.NewReader(ds.Model))
	default:
		return nil, fmt.Errorf("record: unknown detector kind %q", ds.Kind)
	}
}

// Config rebuilds the exact pipeline configuration the recorded mission
// flew: fresh world from the stored geometry, fault plans, and the detector
// restored to its pre-mission state. The returned config has Record set so a
// replay produces a comparable trace.
func (m *Mission) Config() (pipeline.Config, error) {
	h := m.Header
	cfg := pipeline.Config{
		World:         h.World.World(),
		Platform:      h.Platform,
		Planner:       pipeline.PlannerKind(h.Planner),
		Seed:          h.Seed,
		TickS:         h.TickS,
		MaxMissionS:   h.MaxMissionS,
		CruiseAlt:     h.CruiseAlt,
		KernelFault:   h.KernelFault,
		StateFault:    h.StateFault,
		SensorFault:   h.SensorFault,
		ActuatorFault: h.ActuatorFault,
		WindFault:     h.WindFault,
		DetectOnly:    h.DetectOnly,
		Record:        true,
	}
	if h.Detector != nil {
		det, err := h.Detector.Load()
		if err != nil {
			return cfg, err
		}
		cfg.Detector = det
	}
	return cfg, nil
}

// RunRecorded flies one mission under cfg while streaming its tick log into
// dst as a recording in the current format (Version). A config NewHeader
// rejects is not flown. Otherwise the mission is unaffected by the recording
// and by its failures: a dst that fails before the header is written leaves
// the mission to fly unrecorded, and a writer that fails later drops
// samples while the flight completes. Either way the error surfaces here
// beside the genuine result, so campaign aggregates stay usable even when a
// disk fills mid-campaign.
func RunRecorded(cfg pipeline.Config, dst io.Writer) (pipeline.Result, error) {
	return RunRecordedOptions(cfg, dst, Options{})
}

// RunRecordedOptions is RunRecorded with explicit writer options.
func RunRecordedOptions(cfg pipeline.Config, dst io.Writer, opts Options) (pipeline.Result, error) {
	h, err := NewHeader(cfg)
	if err != nil {
		return pipeline.Result{}, err
	}
	w, err := NewWriter(dst, h, opts)
	if err != nil {
		return pipeline.RunMission(cfg), err
	}
	cfg.Record = true
	cfg.Sink = w
	res := pipeline.RunMission(cfg)
	w.SetResult(res)
	return res, w.Close()
}

// verifySink re-encodes the replayed samples through the canonical sample
// codec and compares them byte-for-byte against the recorded stream as the
// replay flies, remembering the first divergence.
type verifySink struct {
	want []byte
	off  int
	buf  []byte

	mismatchAt int // sample index of first divergence, -1 if none
	samples    int
}

func (v *verifySink) Append(s trace.Sample) {
	v.buf = appendSample(v.buf[:0], s)
	if v.mismatchAt < 0 {
		if v.off+len(v.buf) > len(v.want) || !bytes.Equal(v.buf, v.want[v.off:v.off+len(v.buf)]) {
			v.mismatchAt = v.samples
		}
	}
	v.off += len(v.buf)
	v.samples++
}

// Verify is the byte-equality gate: re-simulate the mission from the
// recorded header and require the recomputed tick stream to match the
// recorded one byte-for-byte — every float of every tick, every event tag —
// and the recomputed result to match the footer. Any divergence anywhere in
// the closed loop (a perturbed RNG stream, a reordered floating-point
// reduction, a changed collision semantic) fails here.
func (m *Mission) Verify() error {
	if !m.Complete {
		return ErrIncomplete
	}
	cfg, err := m.Config()
	if err != nil {
		return err
	}
	v := &verifySink{want: m.canonical, mismatchAt: -1}
	cfg.Sink = v
	res := pipeline.RunMission(cfg)

	if v.mismatchAt >= 0 {
		detail := ""
		if v.mismatchAt < len(m.Samples) {
			s := m.Samples[v.mismatchAt]
			detail = fmt.Sprintf(" (recorded t=%.2f pos=%v event=%q)", s.T, s.Pos, s.Event)
		}
		return fmt.Errorf("record: replay diverged at tick %d of %d%s", v.mismatchAt, m.Footer.Samples, detail)
	}
	if v.off != len(m.canonical) {
		return fmt.Errorf("record: replay produced %d canonical bytes, recording has %d (tick counts differ: %d vs %d)",
			v.off, len(m.canonical), v.samples, m.Footer.Samples)
	}
	got := newResultRecord(res)
	if m.Header.Version < 2 {
		// Version-1 footers predate first_alarm_s; a current re-simulation
		// fills it, so blank it before the exact comparison.
		got.FirstAlarmS = 0
	}
	if want := m.Footer.Result; got != want {
		return fmt.Errorf("record: replayed result diverged from footer:\n got %+v\nwant %+v", got, want)
	}
	return nil
}
