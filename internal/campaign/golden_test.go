package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dag"
)

// cpaFamilyGolden is the canonical summary of a CPA/MCPA/MCPA2 factorial
// over every shape, recorded before the allocation phase became
// incremental. Unlike the determinism checks, which compare one build with
// itself, it pins the CPA family's output across code versions: any change
// to allocation, mapping or simulation that moves a single makespan bit
// shows up as a diff. Regenerate it only for a deliberate output change, by
// writing goldenConfig's WriteSummary (threshold 1.2) to the file.
const cpaFamilyGolden = "testdata/cpa_family.golden"

func goldenConfig() Config {
	return Config{
		Shapes: []dag.Shape{
			dag.ShapeSerial, dag.ShapeWide, dag.ShapeLong,
			dag.ShapeRandom, dag.ShapeForkJoin,
		},
		DAGSizes:     []int{40, 80},
		ClusterSizes: []int{32, 128},
		Algos:        []string{"cpa", "mcpa", "mcpa2"},
		Replicates:   2,
		Seed:         1,
	}
}

func TestCPAFamilyGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(cpaFamilyGolden))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteSummary(&got, 1.2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("CPA family summary differs from %s\n--- got ---\n%s--- want ---\n%s",
			cpaFamilyGolden, got.Bytes(), want)
	}
}
