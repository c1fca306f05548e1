package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func cloudBaseline() BenchCloudResult {
	return BenchCloudResult{
		Scenario: "cloud", BlockSize: 16, RankDims: [3]int{1, 1, 1},
		BlockDims: [3]int{2, 2, 2}, Steps: 40, Workers: 2,
		Bubbles: 12, Beta: 2.25, VoidFraction: 0.082, RayleighTau: 5e-4,
		GlobalCells: 32768, WallSeconds: 5, PointsPerSec: 2.5e5,
		StepLatency: BenchSimLatency{MeanMS: 120, P50MS: 119},
		Observables: map[string]float64{
			"peak_amp": 1.22, "wall_amp": 1.0, "ke_peak": 2711,
			"min_ratio": 0.986, "final_ratio": 0.986, "collapse_frac": 0.44,
			"r0_rel_err": 0.074, "mass_drift": 4.9e-5, "non_finite": 0,
		},
	}
}

func TestCompareCloudIdenticalPasses(t *testing.T) {
	r := CompareBenchCloud(cloudBaseline(), cloudBaseline(), DefaultThresholds(1))
	if !r.OK() {
		t.Fatalf("identical records regressed: %v", r.Regressions)
	}
	if r.Checks == 0 {
		t.Fatal("no checks performed")
	}
}

func TestCompareCloudObservablesAreTight(t *testing.T) {
	fresh := cloudBaseline()
	fresh.Observables["peak_amp"] *= 1.001 // tiny for a rate, huge for physics
	r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1))
	if r.OK() {
		t.Fatal("0.1% observable shift passed the deterministic-physics gate")
	}
	if !strings.Contains(strings.Join(r.Regressions, "\n"), "peak_amp") {
		t.Fatalf("regression does not name the observable: %v", r.Regressions)
	}
}

func TestCompareCloudZeroObservableIsExact(t *testing.T) {
	fresh := cloudBaseline()
	fresh.Observables["non_finite"] = 3
	r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1))
	if r.OK() {
		t.Fatal("non-finite cells appeared without failing the gate")
	}
}

func TestCompareCloudRatesAreGenerous(t *testing.T) {
	fresh := cloudBaseline()
	fresh.PointsPerSec *= 0.6       // above the 0.4 floor
	fresh.StepLatency.MeanMS *= 2.0 // below the 2.5 ceiling
	r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1))
	if !r.OK() {
		t.Fatalf("machine noise failed the gate: %v", r.Regressions)
	}
}

func TestCompareCloudStructural(t *testing.T) {
	fresh := cloudBaseline()
	fresh.Bubbles = 11
	if r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1)); r.OK() {
		t.Fatal("bubble-count change passed")
	}
	fresh = cloudBaseline()
	fresh.Beta *= 1.01
	if r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1)); r.OK() {
		t.Fatal("beta change passed")
	}
	fresh = cloudBaseline()
	delete(fresh.Observables, "wall_amp")
	if r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1)); r.OK() {
		t.Fatal("missing observable passed")
	}
}

func TestCompareCloudConfigMismatch(t *testing.T) {
	fresh := cloudBaseline()
	fresh.Steps = 80
	r := CompareBenchCloud(cloudBaseline(), fresh, DefaultThresholds(1))
	if r.OK() {
		t.Fatal("step-count mismatch passed")
	}
	if !strings.Contains(r.Regressions[0], "configuration mismatch") {
		t.Fatalf("unexpected failure message: %v", r.Regressions)
	}
}

func TestDetectBenchKindCloud(t *testing.T) {
	data, err := json.Marshal(cloudBaseline())
	if err != nil {
		t.Fatal(err)
	}
	kind, err := DetectBenchKind(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "cloud" {
		t.Fatalf("kind = %q, want cloud", kind)
	}
}

func TestCompareCloudFiles(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	freshPath := filepath.Join(dir, "fresh.json")
	if err := WriteBenchCloudJSON(basePath, cloudBaseline()); err != nil {
		t.Fatal(err)
	}
	fresh := cloudBaseline()
	fresh.Observables["min_ratio"] *= 0.9
	if err := WriteBenchCloudJSON(freshPath, fresh); err != nil {
		t.Fatal(err)
	}
	r, err := CompareBenchFiles(basePath, freshPath, DefaultThresholds(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "cloud" {
		t.Fatalf("kind = %q, want cloud", r.Kind)
	}
	if r.OK() {
		t.Fatal("10% min_ratio shift passed")
	}
}

// TestCommittedCloudBaselineParses guards the checked-in baseline: it must
// detect as a cloud record and carry the full observable set the CI compare
// reruns against.
func TestCommittedCloudBaselineParses(t *testing.T) {
	data, err := os.ReadFile("../../bench/BENCH_cloud.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	kind, err := DetectBenchKind(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "cloud" {
		t.Fatalf("kind = %q, want cloud", kind)
	}
	var res BenchCloudResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "cloud" || res.Bubbles == 0 || res.Beta <= 0 {
		t.Fatalf("baseline incomplete: %+v", res)
	}
	for _, key := range []string{"peak_amp", "wall_amp", "ke_peak", "min_ratio",
		"final_ratio", "collapse_frac", "r0_rel_err", "mass_drift", "non_finite"} {
		if _, ok := res.Observables[key]; !ok {
			t.Errorf("baseline missing observable %s", key)
		}
	}
}
