package detect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mavfi/internal/faultinject"
	"mavfi/internal/testutil"
)

func TestSignExp(t *testing.T) {
	// 1.0 has biased exponent 1023, sign 0 → 1023.
	if got := SignExp(1.0); got != 1023 {
		t.Errorf("SignExp(1.0) = %d", got)
	}
	// -1.0 sets the sign bit: 0x800 | 1023 = 3071, as int16 that is
	// 3071 (fits), i.e. 2048+1023.
	if got := SignExp(-1.0); got != 3071 {
		t.Errorf("SignExp(-1.0) = %d", got)
	}
	if got := SignExp(0.0); got != 0 {
		t.Errorf("SignExp(0) = %d", got)
	}
}

func TestSignExpDeadband(t *testing.T) {
	// Values under the 0.25 noise floor map to 0 regardless of sign — the
	// hover-oscillation case.
	for _, x := range []float64{0, 0.1, -0.1, 0.24, -0.24, 1e-12, -1e-12} {
		if got := SignExpDeadband(x); got != 0 {
			t.Errorf("SignExpDeadband(%v) = %d, want 0", x, got)
		}
	}
	// Magnitude growth is monotone above the floor.
	prev := int16(0)
	for _, x := range []float64{0.5, 1, 2, 4, 8, 1e10} {
		got := SignExpDeadband(x)
		if got <= prev {
			t.Errorf("SignExpDeadband(%v) = %d not increasing", x, got)
		}
		prev = got
	}
	// Sign symmetry.
	if SignExpDeadband(-8) != -SignExpDeadband(8) {
		t.Error("deadband transform not sign-symmetric")
	}
	// Non-finite values saturate far beyond ordinary magnitudes.
	inf := SignExpDeadband(math.Inf(1))
	if inf <= SignExpDeadband(1e300) {
		t.Errorf("Inf transform %d not saturated", inf)
	}
	if SignExpDeadband(math.Inf(-1)) != -inf {
		t.Error("negative Inf not symmetric")
	}
}

func TestSignExpDeadbandQuick(t *testing.T) {
	f := func(x float64) bool {
		got := SignExpDeadband(x)
		if math.IsNaN(x) {
			return got != 0 // NaN must look extreme, not benign
		}
		if math.Abs(x) < 0.25 {
			return got == 0
		}
		return (x > 0) == (got > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreprocessorDeltas(t *testing.T) {
	var p Preprocessor
	var v StateVector
	v[0] = 1.0
	_, ready := p.Process(v)
	if ready {
		t.Error("first sample marked ready")
	}
	// Same values → zero deltas.
	d, ready := p.Process(v)
	if !ready {
		t.Error("second sample not ready")
	}
	for i, x := range d {
		if x != 0 {
			t.Errorf("delta[%d] = %v on constant input", i, x)
		}
	}
	// Magnitude jump → positive delta on that dim only.
	v[0] = 256.0
	d, _ = p.Process(v)
	if d[0] <= 0 {
		t.Errorf("delta after jump = %v", d[0])
	}
	for i := 1; i < NumStates; i++ {
		if d[i] != 0 {
			t.Errorf("unrelated delta[%d] = %v", i, d[i])
		}
	}
	p.Reset()
	_, ready = p.Process(v)
	if ready {
		t.Error("ready after reset")
	}
}

func TestPreprocessorRawMode(t *testing.T) {
	p := Preprocessor{Raw: true}
	var v StateVector
	v[3] = 10
	p.Process(v)
	v[3] = 12.5
	d, _ := p.Process(v)
	if d[3] != 2.5 {
		t.Errorf("raw delta = %v", d[3])
	}
}

func trainedGAD(t *testing.T) *GAD {
	t.Helper()
	g := NewGAD(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var d [NumStates]float64
		for j := range d {
			d[j] = rng.NormFloat64() * 0.5 // calm normal dynamics
		}
		g.Train(d)
	}
	return g
}

func TestGADDetectsOutlier(t *testing.T) {
	g := trainedGAD(t)
	var normal [NumStates]float64
	if recs := g.Observe(1.0, normal); len(recs) != 0 {
		t.Errorf("false alarm on zeros: %v", recs)
	}
	var anomalous [NumStates]float64
	anomalous[int(faultinject.StateWpX)] = 500 // huge planning-state delta
	recs := g.Observe(2.0, anomalous)
	if len(recs) != 1 {
		t.Fatalf("recoveries = %v", recs)
	}
	if recs[0].Stage != faultinject.StagePlanning {
		t.Errorf("stage = %v, want planning", recs[0].Stage)
	}
	if recs[0].T != 2.0 {
		t.Errorf("T = %v", recs[0].T)
	}
}

func TestGADStageAttribution(t *testing.T) {
	g := trainedGAD(t)
	var d [NumStates]float64
	d[int(faultinject.StateTimeToCollision)] = 500 // perception
	d[int(faultinject.StateVelZ)] = -500           // control
	recs := g.Observe(1, d)
	stages := map[faultinject.Stage]bool{}
	for _, r := range recs {
		stages[r.Stage] = true
	}
	if !stages[faultinject.StagePerception] || !stages[faultinject.StageControl] {
		t.Errorf("stages = %v", stages)
	}
	if stages[faultinject.StagePlanning] {
		t.Error("spurious planning recovery")
	}
}

func TestGADSigmaFloor(t *testing.T) {
	g := NewGAD(4)
	// Constant training data: σ collapses to zero.
	for i := 0; i < 200; i++ {
		var d [NumStates]float64
		g.Train(d)
	}
	// Smooth states (way-point coordinates, floor 0.2 → threshold 0.8):
	// sub-threshold noise tolerated, a full exponent step (×2 value
	// displacement) alarms — that is the corruption class the detectors
	// exist for.
	wpx := int(faultinject.StateWpX)
	var noise [NumStates]float64
	noise[wpx] = 0.5
	if recs := g.Observe(1, noise); len(recs) != 0 {
		t.Errorf("alarm on sub-threshold noise: %v", recs)
	}
	var step [NumStates]float64
	step[wpx] = 1
	if recs := g.Observe(1, step); len(recs) == 0 {
		t.Error("no alarm on exponent step with collapsed sigma")
	}
	// Coarse states (time-to-collision, floor 1.0 → threshold 4): a
	// single step is legitimate braking dynamics, a many-step jump alarms.
	ttc := int(faultinject.StateTimeToCollision)
	var brake [NumStates]float64
	brake[ttc] = 2
	if recs := g.Observe(1, brake); len(recs) != 0 {
		t.Errorf("alarm on braking-scale ttc change: %v", recs)
	}
	var corrupt [NumStates]float64
	corrupt[ttc] = 20
	if recs := g.Observe(1, corrupt); len(recs) == 0 {
		t.Error("no alarm on corrupted ttc jump")
	}
}

func TestGADNaNAlarms(t *testing.T) {
	g := trainedGAD(t)
	var d [NumStates]float64
	d[5] = math.NaN()
	if recs := g.Observe(1, d); len(recs) == 0 {
		t.Error("NaN delta did not alarm")
	}
}

func TestGADOnlineUpdateExcludesAnomalies(t *testing.T) {
	g := trainedGAD(t)
	before := g.TrainedSamples()
	var anomalous [NumStates]float64
	for i := range anomalous {
		anomalous[i] = 1000
	}
	g.Observe(1, anomalous)
	if g.TrainedSamples() != before {
		t.Error("anomalous sample folded into the model")
	}
	var normal [NumStates]float64
	g.Observe(2, normal)
	if g.TrainedSamples() != before+1 {
		t.Error("online update of normal sample missing")
	}
	g.Online = false
	g.Observe(3, normal)
	if g.TrainedSamples() != before+1 {
		t.Error("offline GAD still updating")
	}
}

func TestGADWarmupGate(t *testing.T) {
	g := NewGAD(4)
	for i := 0; i < 5; i++ { // below MinSamples
		var d [NumStates]float64
		g.Train(d)
	}
	var big [NumStates]float64
	big[0] = 1e6
	if recs := g.Observe(1, big); len(recs) != 0 {
		t.Error("alarm during warm-up")
	}
}

func trainAADOnCalm(t *testing.T, cfg AADConfig) *AAD {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	var data [][NumStates]float64
	for i := 0; i < 600; i++ {
		var d [NumStates]float64
		for j := range d {
			d[j] = rng.NormFloat64() * 0.4
		}
		// Inject correlation: vx delta follows wp_x delta.
		d[int(faultinject.StateVelX)] = d[int(faultinject.StateWpX)] + rng.NormFloat64()*0.05
		data = append(data, d)
	}
	a := NewAAD(cfg, rng)
	a.Train(data, cfg, rng)
	return a
}

func TestAADTrainsAndThresholds(t *testing.T) {
	cfg := DefaultAADConfig()
	cfg.Epochs = 15
	a := trainAADOnCalm(t, cfg)
	if !a.Trained() {
		t.Fatal("not trained")
	}
	if a.Threshold <= 0 {
		t.Fatalf("threshold = %v", a.Threshold)
	}
	if a.Params() != 13*6+6+6*3+3+3*13+13 {
		t.Errorf("params = %d", a.Params())
	}
}

func TestAADDetectsLargeAnomaly(t *testing.T) {
	cfg := DefaultAADConfig()
	cfg.Epochs = 15
	a := trainAADOnCalm(t, cfg)

	var normal [NumStates]float64
	if recs := a.Observe(1, normal); len(recs) != 0 {
		t.Errorf("false alarm on zeros: %v", recs)
	}
	var anomalous [NumStates]float64
	anomalous[int(faultinject.StateWpY)] = 900
	recs := a.Observe(2, anomalous)
	if len(recs) != 1 {
		t.Fatalf("recoveries = %v", recs)
	}
	// AAD recovery always targets the control stage (the paper's design).
	if recs[0].Stage != faultinject.StageControl {
		t.Errorf("stage = %v, want control", recs[0].Stage)
	}
}

func TestAADNaNAlarms(t *testing.T) {
	cfg := DefaultAADConfig()
	cfg.Epochs = 10
	a := trainAADOnCalm(t, cfg)
	var d [NumStates]float64
	d[0] = math.NaN()
	if recs := a.Observe(1, d); len(recs) == 0 {
		t.Error("NaN input did not alarm")
	}
}

func TestAADUntrainedSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAAD(DefaultAADConfig(), rng)
	var d [NumStates]float64
	d[0] = 1e9
	if recs := a.Observe(1, d); recs != nil {
		t.Error("untrained AAD alarmed")
	}
	// Training on empty data is a no-op.
	a.Train(nil, DefaultAADConfig(), rng)
	if a.Trained() {
		t.Error("trained on empty corpus")
	}
}

func TestAADCorrelationAdvantage(t *testing.T) {
	// The paper's argument: AAD exploits correlation among states. A
	// sample that breaks the learned vx≈wp_x correlation while keeping
	// each value individually in range must reconstruct worse than a
	// correlation-respecting sample.
	cfg := DefaultAADConfig()
	cfg.Epochs = 40
	a := trainAADOnCalm(t, cfg)

	var consistent, broken [NumStates]float64
	consistent[int(faultinject.StateWpX)] = 1.0
	consistent[int(faultinject.StateVelX)] = 1.0 // follows correlation
	broken[int(faultinject.StateWpX)] = 1.0
	broken[int(faultinject.StateVelX)] = -1.0 // breaks correlation

	if a.ReconError(broken) <= a.ReconError(consistent) {
		t.Errorf("correlation-breaking sample reconstructs better: %v <= %v",
			a.ReconError(broken), a.ReconError(consistent))
	}
}

func TestDetectorNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if NewGAD(3).Name() != "Gaussian" {
		t.Error("GAD name")
	}
	if NewAAD(DefaultAADConfig(), rng).Name() != "Autoencoder" {
		t.Error("AAD name")
	}
}

func TestAADCloneMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultAADConfig()
	cfg.Epochs = 5
	aad := NewAAD(cfg, rng)
	data := make([][NumStates]float64, 200)
	for i := range data {
		for d := 0; d < NumStates; d++ {
			data[i][d] = rng.NormFloat64() * 0.1
		}
	}
	aad.Train(data, cfg, rng)

	clone := aad.Clone()
	if !clone.Trained() || clone.Threshold != aad.Threshold {
		t.Fatal("clone lost trained state")
	}
	var probe [NumStates]float64
	for d := 0; d < NumStates; d++ {
		probe[d] = rng.NormFloat64()
	}
	if co, ao := clone.ReconError(probe), aad.ReconError(probe); co != ao {
		t.Errorf("clone recon error %v != original %v", co, ao)
	}
	// Clones observe concurrently without racing (checked under -race).
	done := make(chan bool, 4)
	for w := 0; w < 4; w++ {
		go func() {
			c := aad.Clone()
			for i := 0; i < 100; i++ {
				c.Observe(float64(i), probe)
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestObserveAllocFree pins the per-tick detector contract: once trained,
// GAD and AAD Observe on a sample that raises no alarm allocate nothing, on
// the detector itself and on the inference clones missions carry.
func TestObserveAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	cfg := DefaultAADConfig()
	cfg.Epochs = 5
	a := trainAADOnCalm(t, cfg)
	g := trainedGAD(t)
	var calm [NumStates]float64
	calm[0] = 0.1
	for name, d := range map[string]Detector{
		"gad": g, "gad clone": g.Clone(), "aad": a, "aad clone": a.Clone(),
	} {
		if recs := d.Observe(0, calm); len(recs) != 0 {
			t.Fatalf("%s: calm sample alarmed: %v", name, recs)
		}
		if allocs := testing.AllocsPerRun(100, func() { d.Observe(1, calm) }); allocs != 0 {
			t.Errorf("%s: Observe allocates %v objects per call, want 0", name, allocs)
		}
	}
}
