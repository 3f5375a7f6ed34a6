package matrix

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
)

func smallSpec(workers int) Spec {
	return Spec{
		Worlds:     []string{"sparse"},
		Targets:    []Target{{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}},
		Severities: []Severity{{Name: "high", Scale: 1.0}},
		Runs:       2,
		Seed:       1,
		Workers:    workers,
	}
}

func TestMatrixByteIdenticalAcrossWorkerWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	var refCells map[string]string
	var refSummary string
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), smallSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		cells := make(map[string]string, len(res.Cells))
		for i := range res.Cells {
			cr := &res.Cells[i]
			cells[cr.Cell.Name()] = cr.csv()
		}
		summary := res.summaryCSV()
		if refCells == nil {
			refCells, refSummary = cells, summary
			continue
		}
		if !reflect.DeepEqual(cells, refCells) {
			t.Errorf("per-cell CSVs differ between 1 and %d workers", workers)
		}
		if summary != refSummary {
			t.Errorf("summary CSV differs between 1 and %d workers", workers)
		}
	}
}

func TestMatrixCellsSeedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	// Dropping a family must not change the plans or results of the cells
	// that remain: every cell derives its RNG from its own (world, family,
	// severity, detector, recovery) identity, not from its position.
	full, err := Run(context.Background(), smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	windOnly := smallSpec(2)
	windOnly.Targets = []Target{{Family: faultinject.FamilyWind}}
	sub, err := Run(context.Background(), windOnly)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*CellResult)
	for i := range full.Cells {
		byName[full.Cells[i].Cell.Name()] = &full.Cells[i]
	}
	for i := range sub.Cells {
		cr := &sub.Cells[i]
		want, ok := byName[cr.Cell.Name()]
		if !ok {
			t.Fatalf("cell %s missing from the full matrix", cr.Cell.Name())
		}
		if cr.Cell.Seed != want.Cell.Seed {
			t.Errorf("cell %s: seed %d in the sub-matrix, %d in the full matrix",
				cr.Cell.Name(), cr.Cell.Seed, want.Cell.Seed)
		}
		if !reflect.DeepEqual(cr.Plans, want.Plans) {
			t.Errorf("cell %s: plans differ between sub- and full matrix", cr.Cell.Name())
		}
		if !reflect.DeepEqual(cr.Campaign.Results, want.Campaign.Results) {
			t.Errorf("cell %s: results differ between sub- and full matrix", cr.Cell.Name())
		}
	}
}

func TestEnumerateAxesAndCollapse(t *testing.T) {
	spec := Spec{
		Worlds:     []string{"sparse", "factory"},
		Targets:    []Target{{Family: faultinject.FamilySensor}},
		Severities: []Severity{{Name: "low", Scale: 0.35}},
		Detectors:  []string{"none", "gad"},
		Recoveries: []bool{true, false},
		Runs:       1,
		Seed:       7,
	}.normalized()
	cells := enumerate(spec)
	// none collapses its recovery axis: 2 worlds × (1 + 2) = 6 cells.
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	names := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if names[c.Name()] {
			t.Errorf("duplicate cell name %s", c.Name())
		}
		names[c.Name()] = true
		if c.Detector == "none" && c.Recovery {
			t.Errorf("unprotected cell %s claims recovery", c.Name())
		}
	}
}

func TestParseSeverities(t *testing.T) {
	got, err := ParseSeverities("low,high")
	if err != nil || len(got) != 2 || got[0].Name != "low" || got[1].Scale != 1.0 {
		t.Errorf("ParseSeverities(low,high) = %+v, %v", got, err)
	}
	got, err = ParseSeverities("extreme=1.5")
	if err != nil || got[0].Name != "extreme" || got[0].Scale != 1.5 {
		t.Errorf("ParseSeverities(extreme=1.5) = %+v, %v", got, err)
	}
	for _, bad := range []string{"", "bogus", "x=-1", "x=nope"} {
		if _, err := ParseSeverities(bad); err == nil {
			t.Errorf("ParseSeverities(%q) accepted", bad)
		}
	}
}

// TestSpecRefusesPathSeverityNames: a severity name is part of its cell's
// CSV file name, so a name holding '/', '\' or NUL is refused by the spec
// check, and RunOn refuses such a spec with the check's text before any
// mission flies, where it once flew every mission and failed writing the
// CSV. ParseSeverities accepts the names; the check is what refuses them.
func TestSpecRefusesPathSeverityNames(t *testing.T) {
	for _, name := range []string{"a/b", `a\b`, "a\x00b", "/", "../x"} {
		sev, err := ParseSeverities(name + "=1")
		if err != nil {
			t.Fatalf("ParseSeverities(%q): %v", name+"=1", err)
		}
		spec := smallSpec(1)
		spec.Severities = sev
		want := spec.Check()
		if want == nil {
			t.Fatalf("the check accepted severity %q", name)
		}
		flown := 0
		spec.Progress = func(done, _ int) { flown = done }
		if _, err := RunOn(context.Background(), spec, NewAssets()); err == nil || err.Error() != want.Error() {
			t.Errorf("severity %q: RunOn returned %v, want the check's %q", name, err, want)
		}
		if flown != 0 {
			t.Errorf("severity %q: %d missions flew before the refusal", name, flown)
		}
	}
}

func TestParseTargets(t *testing.T) {
	all := []Target{
		{Family: faultinject.FamilyKernel}, {Family: faultinject.FamilyState}, {Family: faultinject.FamilySensor},
		{Family: faultinject.FamilyActuator}, {Family: faultinject.FamilyWind},
	}
	for _, c := range []struct {
		in   string
		want []Target // nil: rejected
	}{
		{"all", all},
		{"sensor,wind", []Target{{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}}},
		{"", nil},
		{"none", nil},
		{"bogus", nil},
	} {
		got, err := ParseTargets(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("ParseTargets(%q) accepted: %v", c.in, got)
		case c.want != nil && (err != nil || !reflect.DeepEqual(got, c.want)):
			t.Errorf("ParseTargets(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestSummaryCSVCountsDegradedOutcomes(t *testing.T) {
	cell := Cell{Index: 0, World: "sparse", Family: faultinject.FamilyWind,
		Severity: Severity{Name: "high", Scale: 1}, Detector: "none"}
	camp := &qof.Campaign{Name: cell.Name()}
	camp.Add(qof.Metrics{Outcome: qof.Success, FlightTimeS: 10})
	camp.Add(qof.Metrics{Outcome: qof.Panicked})
	camp.Add(qof.Metrics{Outcome: qof.DeadlineExceeded})
	res := &Result{
		Spec:  Spec{Worlds: []string{"sparse"}}.normalized(),
		Cells: []CellResult{{Cell: cell, Campaign: camp}},
	}
	sum := res.summaryCSV()
	if !strings.Contains(sum, ",1,1,") { // panic=1, deadline=1 columns
		t.Errorf("summary missing panic/deadline counts:\n%s", sum)
	}
	if camp.CountOutcome(qof.Panicked) != 1 || camp.CountOutcome(qof.DeadlineExceeded) != 1 {
		t.Error("CountOutcome miscounts degraded outcomes")
	}
}

// TestSingleCellPlansPinned pins the single-cell draw mavfi and
// mavfi-replay -record share to the plans each of them drew inline before
// it moved into Assets.SingleCellPlans (sparse, seed 1, three missions):
// -kernel planner, -state wp_x, -fault sensor and -fault kernel:pid.
func TestSingleCellPlansPinned(t *testing.T) {
	a := NewAssets()
	for _, c := range []struct {
		kernel, state, fault string
		want                 string
	}{
		{"planner", "", "", `[{"kernel":{"Kernel":4,"Index":377,"Bit":25}},{"kernel":{"Kernel":4,"Index":9,"Bit":35}},{"kernel":{"Kernel":4,"Index":250,"Bit":62}}]`},
		{"", "wp_x", "", `[{"state":{"State":2,"Time":3.0575765699210353,"Bit":25}},{"state":{"State":2,"Time":8.825695512391196,"Bit":35}},{"state":{"State":2,"Time":7.296259255023881,"Bit":62}}]`},
		{"", "", "sensor", `[{"sensor":{"kind":1,"onset_s":7.843613393900328,"duration_s":7.3466628414245445,"severity":0.9290210836258899,"dir":{"X":-0.6464614104574173,"Y":0.760444180695953,"Z":0.06174376758076416},"seed":1596323959565325746}},{"sensor":{"kind":0,"onset_s":12.602066659953548,"duration_s":6.12347118670122,"severity":0.9825988042915577,"dir":{"X":0.5447035838469378,"Y":0.8362897544291052,"Z":-0.0625895548890462},"seed":1122612480126659027}},{"sensor":{"kind":2,"onset_s":6.763745470205357,"duration_s":9.314031082640462,"severity":0.9676749120915289,"dir":{"X":0.32886028568630055,"Y":-0.9426588998224131,"Z":0.056965876486917165},"seed":3383401831529293254}}]`},
		{"", "", "kernel:pid", `[{"kernel":{"Kernel":5,"Index":83,"Bit":56}},{"kernel":{"Kernel":5,"Index":394,"Bit":54}},{"kernel":{"Kernel":5,"Index":16,"Bit":52}}]`},
	} {
		plans, err := a.SingleCellPlans("sparse", c.kernel, c.state, c.fault, 1.0, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(plans)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("kernel=%q state=%q fault=%q:\n got %s\nwant %s", c.kernel, c.state, c.fault, b, c.want)
		}
	}
	if plans, err := a.SingleCellPlans("sparse", "", "", "", 1.0, 3, 1); plans != nil || err != nil {
		t.Errorf("a nominal cell drew %v, %v", plans, err)
	}
	if _, err := a.SingleCellPlans("sparse", "planner", "", "", 1.0, -1, 1); err == nil {
		t.Error("a negative mission count was accepted")
	}
}
