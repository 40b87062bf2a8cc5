package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioCellMatchesCellExperiment is the faithfulness contract for
// the declarative spec path: examples/cell.json run through the generic
// "scenario" experiment must reproduce the hand-coded "cell" experiment
// byte for byte. Quick mode here; CI also diffs the full-size run.
func TestScenarioCellMatchesCellExperiment(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "cell.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("examples/cell.json does not parse: %v", err)
	}

	p := Params{Seed: 1, Quick: true, Workers: 2}
	var direct bytes.Buffer
	if err := Run(&direct, "cell", p); err != nil {
		t.Fatal(err)
	}
	p.Scenario = sp
	var viaSpec bytes.Buffer
	if err := Run(&viaSpec, "scenario", p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
		t.Fatalf("scenario spec diverged from the cell experiment\n--- cell ---\n%s--- scenario ---\n%s",
			direct.String(), viaSpec.String())
	}
}

// TestScenarioHugeInterferenceRangeMatchesUnbounded pins that a finite
// but enormous interference range bounds nothing: the mobility scenario
// at interference_range_m 1e12 (far past the spatial index's int32 cell
// range) must render byte-identical to the same spec left unbounded.
func TestScenarioHugeInterferenceRangeMatchesUnbounded(t *testing.T) {
	base, _ := scenario.Builtin("mobility")
	render := func(ixRange float64) []byte {
		sp := *base
		sp.Topology.InterferenceRangeM = ixRange
		var out bytes.Buffer
		if err := Run(&out, "scenario", Params{Seed: 1, Quick: true, Workers: 2, Scenario: &sp}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	unbounded, huge := render(0), render(1e12)
	if !bytes.Equal(unbounded, huge) {
		t.Fatalf("interference_range_m 1e12 diverged from unbounded\n--- 0 ---\n%s--- 1e12 ---\n%s", unbounded, huge)
	}
}

// TestScenarioRequiresSpec pins the error for the generic experiment
// invoked without a spec (e.g. ssserve without an inline scenario).
func TestScenarioRequiresSpec(t *testing.T) {
	err := Run(&bytes.Buffer{}, "scenario", Params{Seed: 1, Quick: true})
	if err == nil {
		t.Fatal("scenario experiment ran without a spec")
	}
}
