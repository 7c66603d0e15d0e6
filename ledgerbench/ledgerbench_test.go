package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/region"
)

// Tiny geometries keep the tests fast; the code paths are the paper-sized
// workloads' own.

func tinyCamera() cameraConfig {
	return cameraConfig{
		W: 128, H: 96, Scenes: 4, LabelSets: 3, CL: 3, Tile: 32, Tiles: 2, DetFrames: 6,
		Shape: labelShape{minCount: 20, maxCount: 30, minSide: 8, maxSide: 40, maxStride: 4, maxSkip: 3},
	}
}

func tinyRPC() rpcConfig {
	c := defaultRPC()
	c.W, c.H, c.Scenes, c.LabelSets, c.DetFrames = 96, 64, 8, 8, 24
	return c
}

func tinyPush() pushConfig {
	c := defaultPush()
	c.W, c.H, c.Scenes, c.DetFrames = 64, 48, 6, 8
	// The subscriber grants half its window at a time, as rpxpolicy does,
	// so a grant has Credit/2 frames to reach the server before frames
	// drop. Tiny frames stream at thousands per second, where the default
	// 64 leaves about 10 ms, which a GC pause can exceed. At 1080p the same
	// 32 frames take about a second.
	c.Credit = 1024
	return c
}

const tinyRun = 600 * time.Millisecond

// mustRun fails the test on a run error or any oracle mismatch; it is
// curried so a run's two results can be passed straight in.
func mustRun(t *testing.T) func(workloadResult, error) workloadResult {
	return func(res workloadResult, err error) workloadResult {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.failures.mismatch != 0 {
			t.Fatalf("%d oracle mismatches", res.failures.mismatch)
		}
		return res
	}
}

// pick returns the named metrics' values.
func pick(m metricSet, names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			panic("no metric " + n)
		}
		out[n] = v.Value
	}
	return out
}

var deterministic = []string{"encoded_bytes_per_frame", "pixel_fraction", "psnr_db"}

func TestSameSeedRepeatsDeterministicMetrics(t *testing.T) {
	counts := []string{"core.paint_ops_per_frame", "core.roi_compares_per_frame",
		"core.subrequests_per_frame", "core.metadata_bits_per_frame"}
	runs := map[string]func(traced bool) (workloadResult, error){
		"camera": func(traced bool) (workloadResult, error) { return runCamera(tinyCamera(), 5, tinyRun, traced) },
		"rpc":    func(traced bool) (workloadResult, error) { return runRPC(tinyRPC(), 5, tinyRun, traced) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			a := mustRun(t)(run(false))
			b := mustRun(t)(run(false))
			if x, y := pick(a.metrics, deterministic...), pick(b.metrics, deterministic...); !reflect.DeepEqual(x, y) {
				t.Errorf("same seed, different end-to-end metrics:\n%v\n%v", x, y)
			}
			names := counts[2:]
			if name == "camera" {
				names = counts
			}
			ta := mustRun(t)(run(true))
			tb := mustRun(t)(run(true))
			if x, y := pick(ta.metrics, names...), pick(tb.metrics, names...); !reflect.DeepEqual(x, y) {
				t.Errorf("same seed, different core counts:\n%v\n%v", x, y)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, b := renderScenes(96, 64, 2, 1), renderScenes(96, 64, 2, 2)
	if bytes.Equal(a[0].Pix, b[0].Pix) {
		t.Error("scenes do not depend on the seed")
	}
	if reflect.DeepEqual(labelSets(96, 64, 2, qvgaShape, 1), labelSets(96, 64, 2, qvgaShape, 2)) {
		t.Error("label sets do not depend on the seed")
	}
	ra := mustRun(t)(runRPC(tinyRPC(), 1, tinyRun, false))
	rb := mustRun(t)(runRPC(tinyRPC(), 2, tinyRun, false))
	if reflect.DeepEqual(pick(ra.metrics, deterministic...), pick(rb.metrics, deterministic...)) {
		t.Error("a different seed left the deterministic metrics unchanged")
	}
}

// TestFailureAccounting injects the two faults the benchmark must surface:
// a label list over the register file's capacity, and a subscription with
// no credit.
func TestFailureAccounting(t *testing.T) {
	t.Run("over-capacity labels", func(t *testing.T) {
		cfg := tinyRPC()
		cfg.InjectAt = 5
		for i := 0; i < 1601; i++ { // the default register file holds 1600
			cfg.Inject = append(cfg.Inject, region.Label{X: i % cfg.W, Y: i / cfg.W, W: 1, H: 1, Stride: 1, Skip: 1})
		}
		res := mustRun(t)(runRPC(cfg, 3, tinyRun, false))
		if res.labels.rejected != 1 {
			t.Errorf("%d refused label workloads, want the injected one", res.labels.rejected)
		}
		if res.failures.total() != 0 {
			t.Errorf("%d failed frame operations: the refusal must leave frames intact", res.failures.total())
		}
	})
	t.Run("zero credit", func(t *testing.T) {
		cfg := tinyPush()
		cfg.Credit, cfg.RecvTimeout = 0, 200*time.Millisecond
		res := mustRun(t)(runPush(cfg, 3, tinyRun, false))
		if res.failures.total() == 0 {
			t.Fatalf("no failed operations from a subscription without credit (%d attempted)", res.attempted)
		}
	})
}

func TestPushSteersAndVerifies(t *testing.T) {
	res := mustRun(t)(runPush(tinyPush(), 4, tinyRun, true))
	if res.failures.total() != 0 {
		t.Fatalf("%+v failed operations", res.failures)
	}
	if res.labels.written == 0 || len(res.labels.lags) == 0 {
		t.Fatalf("the policy never steered the producer: %+v", res.labels)
	}
	if c := res.metrics["ledger.coverage"].Value; c <= 0 || c > 1.05 {
		t.Errorf("ledger.coverage %v outside (0, 1]", c)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// every end-to-end and per-layer metric it declares is the one printed.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layers    []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	e2e := endToEnd(1, &meter{}, nil, 1, &quality{}, nil)
	if len(e2e) != len(spec.E2E) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(e2e), len(spec.E2E))
	}
	for _, m := range spec.E2E {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayer) != len(spec.Layers) {
		t.Errorf("%d per-layer metrics printed, %d declared", len(perLayer), len(spec.Layers))
	}
	for i, m := range spec.Layers {
		if i < len(perLayer) && (perLayer[i][0] != m.Name || perLayer[i][1] != m.Unit) {
			t.Errorf("per-layer metric %d: declared %s (%s), printed %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got, want := hdQuantile(xs, q), 100*q; math.Abs(got-want) > 0.5 {
			t.Errorf("hdQuantile(0..100, %v) = %v, want about %v", q, got, want)
		}
	}
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 { // 1 - (1-x)^4 - 4x(1-x)^3
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
}
