package matrix

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"mavfi/internal/faultinject"
)

// fidelitySpec is the study-sized spec the determinism and tolerance tests
// share: one CI world, two physical families, two missions per cell.
func fidelitySpec(workers int) Spec {
	return Spec{
		Worlds:     []string{"sparse"},
		Targets:    []Target{{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}},
		Severities: []Severity{{Name: "high", Scale: 1.0}},
		Runs:       2,
		Seed:       1,
		Workers:    workers,
	}
}

// TestSeededMatrixByteIdenticalAcrossWorkerWidths extends the matrix
// byte-identity gate to approximate mode: with missions seeded from the
// golden map in memo mode (and a near-field stride) on, per-cell and
// summary CSVs must still be identical at any worker width — which worker
// forks which pooled arena is unobservable.
func TestSeededMatrixByteIdenticalAcrossWorkerWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	var refCells map[string]string
	var refSummary string
	for _, workers := range []int{1, 4} {
		spec := fidelitySpec(workers)
		spec.MapSeed = "memo"
		spec.NearFieldStride = 2
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		cells := make(map[string]string, len(res.Cells))
		for i := range res.Cells {
			cells[res.Cells[i].Cell.Name()] = res.Cells[i].csv()
		}
		if refCells == nil {
			refCells, refSummary = cells, res.summaryCSV()
			continue
		}
		for name, csv := range cells {
			if csv != refCells[name] {
				t.Errorf("seeded cell %s CSV differs between 1 and %d workers", name, workers)
			}
		}
		if res.summaryCSV() != refSummary {
			t.Errorf("seeded summary CSV differs between 1 and %d workers", workers)
		}
	}
}

// TestFidelityCSVByteIdenticalAcrossWorkerWidths is the study-level
// determinism gate: the full ladder's fidelity.csv must be byte-identical at
// 1 and 4 workers.
func TestFidelityCSVByteIdenticalAcrossWorkerWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the matrix once per ladder setting")
	}
	ref := ""
	for _, workers := range []int{1, 4} {
		study, err := FidelityStudy(context.Background(), fidelitySpec(workers), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		csv := study.CSV()
		if ref == "" {
			ref = csv
			continue
		}
		if csv != ref {
			t.Error("fidelity.csv differs between 1 and 4 workers")
		}
	}
}

// TestFidelityDeltasWithinPinnedTolerance bounds approximate-mode drift on
// the CI world: across the default ladder, every cell's success-rate,
// flight-time, and energy delta against the exact baseline must stay inside
// the documented envelope (docs/EXPERIMENTS.md "Fidelity study"). The
// bounds are deliberately loose — they are a tripwire for approximate mode
// suddenly changing mission character (e.g. a fork leaking state), not a
// precision claim. The exact-baseline row of the study is additionally
// pinned to zero drift, which re-proves seeding is off by default.
func TestFidelityDeltasWithinPinnedTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the matrix once per ladder setting")
	}
	study, err := FidelityStudy(context.Background(), fidelitySpec(4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		maxSuccessDelta = 0.51 // one mission of two flipping is 0.5
		maxFlightDeltaS = 30.0
		maxEnergyDeltaJ = 12000.0
	)
	base := study.Runs[0]
	for si, set := range study.Settings {
		run := study.Runs[si]
		for ci := range run.Cells {
			sr, ft, en, _, _ := fidelityMetrics(&run.Cells[ci])
			bsr, bft, ben, _, _ := fidelityMetrics(&base.Cells[ci])
			name := run.Cells[ci].Cell.Name()
			if si == 0 {
				if sr != bsr || ft != bft || en != ben {
					t.Fatalf("setting %q is its own baseline but drifted on cell %s", set.Name, name)
				}
				continue
			}
			if d := math.Abs(sr - bsr); d > maxSuccessDelta {
				t.Errorf("setting %q cell %s: success-rate delta %.2f exceeds pinned %.2f", set.Name, name, d, maxSuccessDelta)
			}
			if d := math.Abs(ft - bft); d > maxFlightDeltaS {
				t.Errorf("setting %q cell %s: flight-time delta %.1fs exceeds pinned %.1fs", set.Name, name, d, maxFlightDeltaS)
			}
			if d := math.Abs(en - ben); d > maxEnergyDeltaJ {
				t.Errorf("setting %q cell %s: energy delta %.0fJ exceeds pinned %.0fJ", set.Name, name, d, maxEnergyDeltaJ)
			}
		}
	}
	// The CSV must carry one row per (setting, cell).
	csv := study.CSV()
	wantRows := 1 + len(study.Settings)*len(base.Cells)
	if got := strings.Count(csv, "\n"); got != wantRows {
		t.Errorf("fidelity.csv has %d lines, want %d", got, wantRows)
	}
}

// TestFidelityStudyRejectsBadMode pins spec validation through the study.
func TestFidelityStudyRejectsBadMode(t *testing.T) {
	_, err := FidelityStudy(context.Background(), fidelitySpec(1),
		[]FidelitySetting{{Name: "bogus", MapSeed: "warp"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "map-seed") {
		t.Fatalf("bad map-seed mode not rejected: %v", err)
	}
	for _, mode := range []string{"warp", "seed"} {
		bad := fidelitySpec(1)
		bad.MapSeed = mode
		if _, err := Run(context.Background(), bad); err == nil {
			t.Fatalf("Run accepted map-seed mode %q", mode)
		}
	}
	neg := fidelitySpec(1)
	neg.NearFieldStride = -2
	if _, err := Run(context.Background(), neg); err == nil {
		t.Fatal("Run accepted a negative near-field stride")
	}
}

// TestAssetsMapSeedPersistence pins the seed cache: a warm hit returns the
// cached seed itself, and a build in a fresh Assets — another process, a
// restarted server — gives the same golden map.
func TestAssetsMapSeedPersistence(t *testing.T) {
	a := NewAssets()
	built, err := a.MapSeed("sparse")
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.MapSeed("sparse")
	if err != nil || again != built {
		t.Fatalf("warm MapSeed did not return the cached seed (err %v)", err)
	}
	fresh, err := NewAssets().MapSeed("sparse")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Digest() != built.Digest() {
		t.Fatal("a fresh build differs from the cached seed")
	}
}

// TestFidelityCSVSchema pins the study CSV header and the numeric form of a
// delta cell (shortest round-trip floats, empty latency for latency-less
// cells) so downstream figure scripts can rely on the bytes.
func TestFidelityCSVSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	spec := fidelitySpec(2)
	spec.Targets = []Target{{Family: faultinject.FamilyWind}}
	study, err := FidelityStudy(context.Background(), spec,
		[]FidelitySetting{{Name: "exact", MapSeed: "off"}, {Name: "memo", MapSeed: "memo"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(study.CSV(), "\n"), "\n")
	wantHeader := "setting,map_seed,near_stride,cell,world,fault,severity,detector,recovery," +
		"runs,success_rate,mean_flight_s,mean_energy_j,mean_detect_latency_s," +
		"d_success_rate,d_mean_flight_s,d_mean_energy_j,d_detect_latency_s"
	if lines[0] != wantHeader {
		t.Fatalf("header drifted:\n got %s\nwant %s", lines[0], wantHeader)
	}
	if len(lines) != 3 {
		t.Fatalf("want 2 data rows, got %d", len(lines)-1)
	}
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 18 {
			t.Fatalf("row %d has %d fields, want 18", i, len(f))
		}
		for _, col := range []int{14, 15, 16} { // delta columns
			v, err := strconv.ParseFloat(f[col], 64)
			if err != nil {
				t.Fatalf("row %d col %d not a float: %q", i, col, f[col])
			}
			if i == 0 && v != 0 {
				t.Errorf("baseline row has nonzero delta in col %d: %q", col, f[col])
			}
		}
	}
}
