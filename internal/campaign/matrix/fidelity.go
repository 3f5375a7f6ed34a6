package matrix

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mavfi/internal/stats"
)

// FidelitySetting is one rung of the approximate-mode ladder: a named
// (map-seed mode, near-field stride) combination the fidelity study flies
// the whole matrix under.
type FidelitySetting struct {
	Name            string
	MapSeed         string
	NearFieldStride int
}

// DefaultFidelityLadder is the study's standard ladder: the exact baseline,
// then each approximate lever composed in ascending aggressiveness.
func DefaultFidelityLadder() []FidelitySetting {
	return []FidelitySetting{
		{Name: "exact", MapSeed: "off"},
		{Name: "memo", MapSeed: "memo"},
		{Name: "memo-near2", MapSeed: "memo", NearFieldStride: 2},
	}
}

// FidelityResult is one completed fidelity study: the same matrix spec run
// once per ladder setting, with setting 0 as the delta baseline.
type FidelityResult struct {
	Spec     Spec
	Settings []FidelitySetting
	Runs     []*Result
}

// FidelityStudy flies spec once per setting (setting 0 is the baseline all
// deltas are reported against) and collects the per-cell paper-figure
// metrics. Every run goes through RunOn with the same assets, so worlds,
// counters, detectors, and golden maps are built once; determinism is
// inherited from the matrix contract — the study CSV is byte-identical at
// any worker width.
func FidelityStudy(ctx context.Context, spec Spec, settings []FidelitySetting, assets *Assets) (*FidelityResult, error) {
	if len(settings) == 0 {
		settings = DefaultFidelityLadder()
	}
	if assets == nil {
		assets = NewAssets()
	}
	fr := &FidelityResult{Spec: spec.normalized(), Settings: settings}
	for _, set := range settings {
		s := spec
		s.MapSeed = set.MapSeed
		s.NearFieldStride = set.NearFieldStride
		res, err := RunOn(ctx, s, assets)
		if err != nil {
			return nil, fmt.Errorf("matrix: fidelity setting %q: %w", set.Name, err)
		}
		fr.Runs = append(fr.Runs, res)
	}
	return fr, nil
}

// CSV renders the study as one deterministic table: a row per (setting,
// cell) holding the paper-figure metrics — success rate, mean detection
// latency, and the QoF aggregates (mean flight time, mean mission energy) —
// plus each metric's delta against the exact baseline's same cell. Setting
// rows appear in ladder order, cells in enumeration order, floats in the
// shortest round-trip form, so the bytes are a pure function of the results.
func (fr *FidelityResult) CSV() string {
	var b strings.Builder
	b.WriteString("setting,map_seed,near_stride,cell,world,fault,severity,detector,recovery," +
		"runs,success_rate,mean_flight_s,mean_energy_j,mean_detect_latency_s," +
		"d_success_rate,d_mean_flight_s,d_mean_energy_j,d_detect_latency_s\n")
	for si, set := range fr.Settings {
		run := fr.Runs[si]
		base := fr.Runs[0]
		for ci := range run.Cells {
			cr := &run.Cells[ci]
			c := cr.Cell
			sr, ft, en, lat, hasLat := fidelityMetrics(cr)
			bsr, bft, ben, blat, bHasLat := fidelityMetrics(&base.Cells[ci])
			latS, dLatS := "", ""
			if hasLat {
				latS = fm(lat)
			}
			if hasLat && bHasLat {
				dLatS = fm(lat - blat)
			}
			fmt.Fprintf(&b, "%s,%s,%d,%d,%s,%s,%s,%s,%v,%d,%s,%s,%s,%s,%s,%s,%s,%s\n",
				set.Name, set.MapSeed, set.NearFieldStride,
				c.Index, c.World, c.Target(), c.Severity.Name, c.Detector, c.Recovery,
				cr.Campaign.N(), fm(sr), fm(ft), fm(en), latS,
				fm(sr-bsr), fm(ft-bft), fm(en-ben), dLatS)
		}
	}
	return b.String()
}

// fidelityMetrics extracts one cell's paper-figure numbers.
func fidelityMetrics(cr *CellResult) (successRate, meanFlightS, meanEnergyJ, detectLatencyS float64, hasLatency bool) {
	camp := cr.Campaign
	successRate = camp.SuccessRate()
	meanFlightS = camp.FlightTimeSummary().Mean
	meanEnergyJ = stats.Summarize(camp.Energies()).Mean
	detectLatencyS, hasLatency = camp.MeanDetectionLatencyS()
	return
}

// WriteCSV writes the study table as fidelity.csv under dir.
func (fr *FidelityResult) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "fidelity.csv"), []byte(fr.CSV()), 0o644)
}
