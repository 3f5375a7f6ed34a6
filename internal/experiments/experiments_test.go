package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mavfi/internal/detect"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
)

// tinyOpts keeps the experiment integration tests fast: the assertions below
// check structure and direction, not statistical significance. Under -short
// (CI) the campaigns shrink further — still enough missions to exercise
// every code path, not enough for tight statistics.
func tinyOpts() Opts {
	o := QuickOpts()
	o.Runs = 6
	o.TrainEnvs = 8
	o.AAD.Epochs = 8
	if testing.Short() {
		o.Runs = 3
		o.TrainEnvs = 5
		o.AAD.Epochs = 6
	}
	return o
}

func TestContextWorlds(t *testing.T) {
	c := NewContext(tinyOpts())
	names := []string{"Factory", "Farm", "Sparse", "Dense"}
	if len(c.Worlds) != 4 {
		t.Fatalf("%d worlds", len(c.Worlds))
	}
	for i, w := range c.Worlds {
		if w.Name != names[i] {
			t.Errorf("world %d = %s, want %s", i, w.Name, names[i])
		}
		if err := w.Validate(); err != nil {
			t.Errorf("world %s invalid: %v", w.Name, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown world lookup did not panic")
		}
	}()
	c.World("Nowhere")
}

func TestContextTraining(t *testing.T) {
	c := NewContext(tinyOpts())
	gad := c.GADetector()
	if gad.TrainedSamples() < 100 {
		t.Errorf("GAD trained on only %d samples", gad.TrainedSamples())
	}
	// Clones are independent.
	g2 := c.GADetector()
	if g2 == gad {
		t.Error("GADetector returned shared instance")
	}
	aad := c.AADetector()
	if !aad.Trained() {
		t.Error("AAD not trained")
	}
	if len(c.TrainData()) < 100 {
		t.Error("training corpus too small")
	}
}

func TestFig3Structure(t *testing.T) {
	c := NewContext(tinyOpts())
	f := c.Fig3()
	if len(f.Cells) != 8 { // Golden + 7 kernels/planners
		t.Fatalf("%d cells", len(f.Cells))
	}
	wantNames := []string{"Golden", "P.C. Gen.", "OctoMap", "Col. Ck.", "RRT", "RRTConnect", "RRT*", "PID"}
	for i, cell := range f.Cells {
		if cell.Name != wantNames[i] {
			t.Errorf("cell %d = %s", i, cell.Name)
		}
		if cell.N() != c.Runs {
			t.Errorf("cell %s has %d runs", cell.Name, cell.N())
		}
	}
	if s := f.String(); !strings.Contains(s, "Golden") || !strings.Contains(s, "RRT*") {
		t.Error("rendering incomplete")
	}
	// The worst-case increase is non-negative by construction.
	if f.WorstCaseIncrease() < 0 {
		t.Errorf("worst-case increase %v", f.WorstCaseIncrease())
	}
	if f.SuccessDrop() < 0 || f.SuccessDrop() > 1 {
		t.Errorf("success drop %v", f.SuccessDrop())
	}
}

func TestFig4Structure(t *testing.T) {
	c := NewContext(tinyOpts())
	f := c.Fig4()
	if len(f.Cells) != int(faultinject.NumInjectableStates) {
		t.Fatalf("%d state cells", len(f.Cells))
	}
	if f.Cell(faultinject.StateWpX) == nil || f.Cell(faultinject.StateVelZ) == nil {
		t.Error("missing state cells")
	}
	total := 0
	for _, camp := range f.ByField {
		total += camp.N()
	}
	if total != len(f.Cells)*c.Runs {
		t.Errorf("bit-field totals %d, want %d", total, len(f.Cells)*c.Runs)
	}
	if s := f.String(); !strings.Contains(s, "time_to_collision") || !strings.Contains(s, "exponent") {
		t.Error("rendering incomplete")
	}
}

func TestTableIAndFig6(t *testing.T) {
	o := tinyOpts()
	c := NewContext(o)
	tab := c.TableI()
	if len(tab.Envs) != 4 {
		t.Fatalf("%d envs", len(tab.Envs))
	}
	for _, ec := range tab.Envs {
		if ec.Golden.N() != o.Runs || ec.Injected.N() != 3*o.Runs ||
			ec.GAD.N() != 3*o.Runs || ec.AAD.N() != 3*o.Runs {
			t.Errorf("%s campaign sizes: %d %d %d %d", ec.Env,
				ec.Golden.N(), ec.Injected.N(), ec.GAD.N(), ec.AAD.N())
		}
	}
	// Fig6 reuses the cached campaigns (no recomputation).
	f6 := c.Fig6()
	if f6.Envs[0] != tab.Envs[0] {
		t.Error("Fig6 did not reuse TableI campaigns")
	}
	if s := tab.String(); !strings.Contains(s, "Golden Run") || !strings.Contains(s, "Recovered") {
		t.Error("TableI rendering incomplete")
	}
	if s := f6.String(); !strings.Contains(s, "Factory") {
		t.Error("Fig6 rendering incomplete")
	}
}

func TestTableII(t *testing.T) {
	c := NewContext(tinyOpts())
	tab := c.TableII()
	if len(tab.Gaussian) != 4 || len(tab.Autoencoder) != 4 {
		t.Fatalf("row counts %d/%d", len(tab.Gaussian), len(tab.Autoencoder))
	}
	// The paper's headline: autoencoder overhead orders of magnitude below
	// Gaussian overhead.
	if MaxSum(tab.Autoencoder) >= MaxSum(tab.Gaussian) {
		t.Errorf("AAD overhead %.5f not below GAD %.5f",
			MaxSum(tab.Autoencoder), MaxSum(tab.Gaussian))
	}
	// AAD total overhead stays tiny (paper: ≤0.0062%; allow an order of
	// slack at test scale).
	if MaxSum(tab.Autoencoder) > 0.001 {
		t.Errorf("AAD overhead %.5f%% too large", MaxSum(tab.Autoencoder)*100)
	}
	if s := tab.String(); !strings.Contains(s, "Gaussian-based") {
		t.Error("rendering incomplete")
	}
}

func TestFig8(t *testing.T) {
	c := NewContext(tinyOpts())
	f := c.Fig8()
	if len(f.Rows) != 6 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	airsim, spark := f.Ratio("AirSim UAV"), f.Ratio("DJI Spark")
	if airsim < 1 || spark < 1 {
		t.Errorf("TMR ratios below 1: %v %v", airsim, spark)
	}
	// Paper: 1.06x AirSim, 1.91x Spark — the Spark must suffer much more.
	if spark <= airsim+0.2 {
		t.Errorf("Spark ratio %v not clearly worse than AirSim %v", spark, airsim)
	}
	if s := f.String(); !strings.Contains(s, "TMR") {
		t.Error("rendering incomplete")
	}
}

func TestFig9(t *testing.T) {
	o := tinyOpts()
	o.Runs = 4
	c := NewContext(o)
	f := c.Fig9()
	if len(f.Studies) != 2 {
		t.Fatalf("%d studies", len(f.Studies))
	}
	i9, tx2 := f.Studies[0], f.Studies[1]
	if i9.Platform.Name != "i9-9940X" || tx2.Platform.Name != "Cortex-A57" {
		t.Errorf("platforms: %s %s", i9.Platform.Name, tx2.Platform.Name)
	}
	mi9 := i9.Golden.FlightTimeSummary().Mean
	mtx2 := tx2.Golden.FlightTimeSummary().Mean
	if mtx2 <= mi9*1.3 {
		t.Errorf("TX2 mean %.1f not clearly slower than i9 %.1f (paper: 2.8x)", mtx2, mi9)
	}
	if s := f.String(); !strings.Contains(s, "Core number") {
		t.Error("rendering incomplete")
	}
}

func TestRecoveredFractionShape(t *testing.T) {
	// End-to-end direction check at tiny scale: protection must not make
	// success rates worse than unprotected injection by more than noise.
	c := NewContext(tinyOpts())
	ec := c.envCampaign("Sparse")
	inj := ec.Injected.SuccessRate()
	if ec.GAD.SuccessRate() < inj-0.15 {
		t.Errorf("GAD success %.2f well below unprotected %.2f", ec.GAD.SuccessRate(), inj)
	}
	if ec.AAD.SuccessRate() < inj-0.15 {
		t.Errorf("AAD success %.2f well below unprotected %.2f", ec.AAD.SuccessRate(), inj)
	}
}

// flights returns a campaign of successful missions with the given flight
// times.
func flights(times ...float64) *qof.Campaign {
	c := &qof.Campaign{}
	for _, s := range times {
		c.Add(qof.Metrics{Outcome: qof.Success, FlightTimeS: s})
	}
	return c
}

// TestWorstCaseRecoveredClamped pins the clamp Fig. 6 and Fig. 9 share. Over
// a small gap a protected worst case far above the injected one gave Fig. 6
// a recovery of −3547.6% at paper scale (Dense); it must read 0, one below
// golden must read 1, and a worst case that injection did not raise reads
// 1.
func TestWorstCaseRecoveredClamped(t *testing.T) {
	golden, injected := flights(60, 100), flights(70, 102.1)
	cases := []struct {
		name      string
		injected  *qof.Campaign
		protected *qof.Campaign
		want      float64
	}{
		{"protected far above injected", injected, flights(80, 176.6), 0},
		{"protected below golden", injected, flights(50, 90), 1},
		{"protected halfway", injected, flights(101.05), 0.5},
		{"injection raised nothing", flights(100), flights(176.6), 1},
	}
	for _, c := range cases {
		if got := WorstCaseRecovered(golden, c.injected, c.protected); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: recovered %v, want %v", c.name, got, c.want)
		}
	}
	f := &Fig6Result{Envs: []*EnvCampaign{{Env: "Dense", Golden: golden, Injected: injected,
		GAD: flights(80, 176.6), AAD: flights(50, 90)}}}
	if s := f.String(); !strings.Contains(s, "recovered GAD 0.0%, AAD 100.0%") {
		t.Errorf("Fig. 6 does not clamp its recovery:\n%s", s)
	}
}

// campaignForWorkers runs one golden cell plus one AAD-protected injection
// cell with the given worker count, from a fresh Context each time.
func campaignForWorkers(o Opts, workers int) (golden, protected *qof.Campaign) {
	o.Workers = workers
	c := NewContext(o)
	w := c.World("Sparse")
	golden = c.runCell("Golden", func(i int) pipeline.Config {
		return pipeline.Config{World: w, Platform: c.Platform, Seed: c.Seed + int64(i)}
	})
	ctr := c.calibrate(w, c.Platform)
	plans := make([]faultinject.Plan, c.Runs)
	// Deterministic schedule: reuse the calibration counter with a fixed
	// stream so every worker-count variant replays identical faults.
	rng := rand.New(rand.NewSource(c.Seed + 99))
	for i := range plans {
		plans[i] = faultinject.NewPlan(faultinject.KernelPlanner, ctr.Count(faultinject.KernelPlanner), rng)
	}
	protected = c.runInjected("Autoencoder", w, c.Platform, plans, func() detect.Detector {
		return c.AADetector()
	})
	return golden, protected
}

// TestCampaignWorkerDeterminism is the engine's core guarantee at the
// experiments layer: the same campaign seed yields an identical qof.Campaign
// — mission for mission — whether the pool runs 1, 2, or 8 workers.
func TestCampaignWorkerDeterminism(t *testing.T) {
	o := tinyOpts()
	o.Runs = 3
	o.TrainEnvs = 4
	o.AAD.Epochs = 4
	var refGolden, refProtected *qof.Campaign
	for _, workers := range []int{1, 2, 8} {
		golden, protected := campaignForWorkers(o, workers)
		if refGolden == nil {
			refGolden, refProtected = golden, protected
			continue
		}
		if !reflect.DeepEqual(refGolden.Results, golden.Results) {
			t.Errorf("workers=%d: golden campaign differs from 1-worker run", workers)
		}
		if !reflect.DeepEqual(refProtected.Results, protected.Results) {
			t.Errorf("workers=%d: protected campaign differs from 1-worker run", workers)
		}
	}
	if refGolden.N() != o.Runs || refProtected.N() != o.Runs {
		t.Fatalf("campaign sizes %d/%d", refGolden.N(), refProtected.N())
	}
}

func TestAblationStructures(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := tinyOpts()
	o.Runs = 3
	c := NewContext(o)

	sig := c.AblationSigma()
	if len(sig.Cells) != 5 {
		t.Errorf("sigma sweep cells = %d", len(sig.Cells))
	}
	// Higher n must not increase golden false positives.
	if sig.Cells[0].GoldenFPs < sig.Cells[len(sig.Cells)-1].GoldenFPs {
		t.Errorf("FPs not decreasing with n: first %v last %v",
			sig.Cells[0].GoldenFPs, sig.Cells[len(sig.Cells)-1].GoldenFPs)
	}

	pre := c.AblationPreprocess()
	if len(pre.Cells) != 2 {
		t.Errorf("preprocess cells = %d", len(pre.Cells))
	}
	bn := c.AblationBottleneck()
	if len(bn.Cells) != 4 {
		t.Errorf("bottleneck cells = %d", len(bn.Cells))
	}
	rec := c.AblationRecovery()
	if len(rec.Cells) != 3 {
		t.Errorf("recovery cells = %d", len(rec.Cells))
	}
	for _, a := range []*AblationResult{sig, pre, bn, rec} {
		if a.String() == "" {
			t.Error("empty ablation rendering")
		}
	}
}
