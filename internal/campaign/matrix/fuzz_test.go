package matrix

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mavfi/internal/faultinject"
)

// FuzzParseTarget throws arbitrary strings at the fault-target grammar
// ("family[:kind]", comma-separated). The contract: no input panics, "all"
// always expands to the five kindless families, and every accepted entry
// round-trips — rendering the parsed Target and reparsing it yields the same
// Target, which is what keeps cell names (and therefore cell seeds) stable
// across the CLI and the campaign server.
//
// The corpus seeds every family bare plus one real kind per kinded family
// (the fixture combinations the kernels and sensors define), the "all"
// alias, and the malformed shapes the parser rejects.
func FuzzParseTarget(f *testing.F) {
	seeds := []string{
		"all", "kernel", "state", "sensor", "actuator", "wind",
		"kernel:planner", "kernel:pcgen", "kernel:octomap", "kernel:colcheck", "kernel:pid",
		"sensor,wind", "sensor:bogus", "wind:gust", "", ",", "sensor:", ":kind",
		"kernel:planner,state,wind",
	}
	// Real kind names straight from the fault zoo's enumerations.
	for st := faultinject.StateID(0); st < faultinject.NumInjectableStates; st++ {
		seeds = append(seeds, "state:"+st.String())
	}
	for k := faultinject.SensorFaultKind(0); k < faultinject.NumSensorFaultKinds; k++ {
		seeds = append(seeds, "sensor:"+k.String())
	}
	for k := faultinject.ActuatorFaultKind(0); k < faultinject.NumActuatorFaultKinds; k++ {
		seeds = append(seeds, "actuator:"+k.String())
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			t.Skip("oversized input")
		}
		targets, err := ParseTargets(s)
		if err != nil {
			return
		}
		if len(targets) == 0 {
			t.Fatalf("ParseTargets(%q) accepted with zero targets", s)
		}
		if s == "all" && len(targets) != 5 {
			t.Fatalf("all expanded to %d targets", len(targets))
		}
		for _, tg := range targets {
			if tg.Family == faultinject.FamilyNone {
				t.Fatalf("ParseTargets(%q) accepted FamilyNone", s)
			}
			// The canonical rendering must reparse to the same target: the
			// seed-stability contract for cell names.
			again, err := ParseTargets(tg.String())
			if err != nil {
				t.Fatalf("round-trip of %q failed: %v", tg, err)
			}
			if len(again) != 1 || again[0] != tg {
				t.Fatalf("round-trip of %q = %v", tg, again)
			}
			// The underlying grammar agrees with the matrix-level parse.
			fam, _, err := faultinject.ParseTarget(tg.String())
			if err != nil || fam != tg.Family {
				t.Fatalf("faultinject.ParseTarget(%q) = %v, %v; want family %v", tg, fam, err, tg.Family)
			}
		}
	})
}

// FuzzParseSeverities rides along on the severity grammar: no panic, and
// accepted severities carry finite non-negative scales and reparseable
// names.
func FuzzParseSeverities(f *testing.F) {
	for _, s := range []string{"low", "med", "high", "low,med,high", "extreme=1.5", "x=0.1", "", "bogus", "x=-1", "x=nope", "=", "a=1,b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			t.Skip("oversized input")
		}
		sevs, err := ParseSeverities(s)
		if err != nil {
			return
		}
		if len(sevs) == 0 {
			t.Fatalf("ParseSeverities(%q) accepted with zero severities", s)
		}
		for _, sev := range sevs {
			if sev.Name == "" {
				t.Fatalf("ParseSeverities(%q) accepted an unnamed severity", s)
			}
			// !(x > 0) catches NaN as well as non-positive scales.
			if !(sev.Scale > 0) || math.IsInf(sev.Scale, 0) {
				t.Fatalf("ParseSeverities(%q) accepted scale %v", s, sev.Scale)
			}
			if strings.ContainsAny(sev.Name, ",=") {
				t.Fatalf("ParseSeverities(%q) kept separator in name %q", s, sev.Name)
			}
		}
	})
}

// FuzzCellSpec pins the single-cell wire form's round trip: any JSON cell
// spec that CellSpec.Spec accepts names exactly one cell, and that cell,
// projected with Spec.CellSpec, sent through JSON and checked again, is the
// same cell with the same knobs. The dispatcher relies on this: a worker
// re-parses every unit it is sent and refuses one whose cell name differs.
func FuzzCellSpec(f *testing.F) {
	for _, s := range []string{
		`{"fault":"sensor"}`,
		`{"world":"dense","fault":"sensor:ray_dropout","severity":"x=0.45","detector":"aad","recovery":true,"runs":2,"seed":-7,"max_mission_s":33.5,"train_envs":3,"map_seed":"memo","near_field_stride":2,"record":true}`,
		`{"world":"factory","fault":"kernel:pid","severity":"low","detector":"gad","seed":9}`,
		`{"fault":"state:wp_x","severity":"med","detector":"none","recovery":true}`,
		`{"fault":"wind","severity":"tiny=5e-324","runs":-1}`,
		`{"fault":"actuator","severity":" x =1e+21 "}`,
		`{"fault":"all"}`, `{"fault":"sensor","severity":"low,high"}`, `{"fault":"sensor","map_seed":"seed"}`,
		`{"fault":"sensor","near_field_stride":-1}`, `{"fault":"sensor","world":"nowhere"}`, `{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var cs CellSpec
		if json.Unmarshal(in, &cs) != nil {
			return
		}
		_, spec, err := cs.Spec()
		if err != nil {
			return
		}
		cells := Cells(spec)
		if len(cells) != 1 {
			t.Fatalf("%s names %d cells", in, len(cells))
		}
		wire, err := json.Marshal(spec.CellSpec(cells[0]))
		if err != nil {
			t.Fatal(err)
		}
		var back CellSpec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		_, again, err := back.Spec()
		if err != nil {
			t.Fatalf("projection %s of %s refused: %v", wire, in, err)
		}
		c, c2 := cells[0], Cells(again)[0]
		if c.Name() != c2.Name() || c.Seed != c2.Seed ||
			math.Float64bits(c.Severity.Scale) != math.Float64bits(c2.Severity.Scale) {
			t.Fatalf("%s: cell %s (seed %d, scale %v) came back as %s (seed %d, scale %v)",
				in, c.Name(), c.Seed, c.Severity.Scale, c2.Name(), c2.Seed, c2.Severity.Scale)
		}
		if spec.Runs != again.Runs || spec.Seed != again.Seed || spec.MaxMissionS != again.MaxMissionS ||
			spec.TrainEnvs != again.TrainEnvs || spec.MapSeed != again.MapSeed || spec.NearFieldStride != again.NearFieldStride {
			t.Fatalf("%s: knobs changed through the wire: %+v vs %+v", in, spec, again)
		}
	})
}
