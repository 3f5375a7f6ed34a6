package dispatch

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
)

// identitySpec is a small real-mission matrix: sensor and wind families
// skip kernel calibration, so the whole sweep is a few hundred ms.
func identitySpec() matrix.Spec {
	return matrix.Spec{
		Worlds:     []string{"sparse"},
		Targets:    []matrix.Target{{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}},
		Severities: []matrix.Severity{{Name: "high", Scale: 1.0}},
		Runs:       2,
		Seed:       1,
	}
}

// resultCSVs renders a result the way `mavfi matrix -csv-dir` writes it.
func resultCSVs(res *matrix.Result) (map[string]string, string) {
	cells := make(map[string]string, len(res.Cells))
	for i := range res.Cells {
		cr := &res.Cells[i]
		cells[cr.Cell.CSVName()] = cr.CSV()
	}
	return cells, res.SummaryCSV()
}

// startWorkers launches n real worker shards on loopback HTTP and returns
// their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

func TestDispatchByteIdentityAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	ref, err := matrix.Run(context.Background(), identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	for _, shards := range []int{1, 2} {
		d := New(Config{
			Shards:       startWorkers(t, shards),
			DisableLocal: true,
			Logf:         t.Logf,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := d.Run(ctx, identitySpec())
		cancel()
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		cells, summary := resultCSVs(res)
		if len(cells) != len(refCells) {
			t.Fatalf("%d shards: %d cells, want %d", shards, len(cells), len(refCells))
		}
		for name, csv := range refCells {
			if cells[name] != csv {
				t.Errorf("%d shards: cell %s CSV differs from single-process run", shards, name)
			}
		}
		if summary != refSummary {
			t.Errorf("%d shards: summary CSV differs from single-process run", shards)
		}
	}
}

func TestDispatchLocalFallbackByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	// No shards registered at all: the dispatcher must degrade to local
	// in-process execution and still produce identical bytes.
	ref, err := matrix.Run(context.Background(), identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	d := New(Config{Workers: 1, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stat(); st.LocalRuns == 0 {
		t.Error("no local runs recorded despite an empty fleet")
	}
	cells, summary := resultCSVs(res)
	for name, csv := range refCells {
		if cells[name] != csv {
			t.Errorf("local fallback: cell %s CSV differs from single-process run", name)
		}
	}
	if summary != refSummary {
		t.Error("local fallback: summary CSV differs from single-process run")
	}
}

// TestDispatchSeedSharingByteIdentity pins memoized golden-map mode across
// real worker shards: each worker builds the seed of the world it flies,
// and the CSVs must match the single-process run. Its eight short missions
// take under a second, so it also runs in -short mode, the mode CI runs.
func TestDispatchSeedSharingByteIdentity(t *testing.T) {
	spec := identitySpec()
	spec.MapSeed = "memo"
	ref, err := matrix.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	d := New(Config{
		Shards:       startWorkers(t, 2),
		DisableLocal: true,
		Logf:         t.Logf,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, summary := resultCSVs(res)
	for name, csv := range refCells {
		if cells[name] != csv {
			t.Errorf("memo mode: cell %s CSV differs from single-process run", name)
		}
	}
	if summary != refSummary {
		t.Error("memo mode: summary CSV differs from single-process run")
	}
}
