package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/pix"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the code: every
// name is well formed and used once, every workload and metric it
// lists is one the benchmark runs and reports with the same unit, and
// the serving ladder quoted in serve-mixed's why is the one in code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var codeNames []string
	for _, w := range workloads() {
		codeNames = append(codeNames, w.name)
	}
	if len(bj.Workloads) != len(codeNames) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(bj.Workloads), len(codeNames))
	}
	for _, w := range bj.Workloads {
		check(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not in the code", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(units) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code reports %d", len(bj.EndToEnd), len(units))
	}
	for _, m := range bj.EndToEnd {
		check(m.Name)
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %q: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, u)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, code reports %d", len(bj.PerLayer), len(layerUnits))
	}
	for _, m := range bj.PerLayer {
		check(m.Name)
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %q: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, u)
		}
	}
	var ladder []string
	for _, r := range defaultServe.ladder {
		ladder = append(ladder, fmt.Sprint(r))
	}
	want := fmt.Sprintf("report %g rps; ladder %s-%s rps; p99 limit %v",
		defaultServe.reportRate, ladder[0], ladder[len(ladder)-1], defaultServe.p99Limit)
	for _, w := range bj.Workloads {
		if w.Name == "serve-mixed" && !strings.Contains(w.Why, want) {
			t.Errorf("serve-mixed why %q does not quote %q", w.Why, want)
		}
	}
}

// tiny shrinks a workload for a smoke run: a handful of images per kind
// and, for serving, low rates and short rungs.
func tiny(name string) *workload {
	w := *findWorkload(name)
	w.kinds = append([]imageKind(nil), w.kinds...)
	for i := range w.kinds {
		w.kinds[i].count = max(2, w.kinds[i].count/12)
	}
	if w.serve != nil {
		cfg := *w.serve
		cfg.reportRate, cfg.report, cfg.ladder, cfg.rung = 20, 300*time.Millisecond, []float64{15, 25}, 300*time.Millisecond
		w.serve = &cfg
	}
	return &w
}

func smokeOptions(t *testing.T, trace bool) options {
	return options{
		seed: 7, measure: 600 * time.Millisecond, setups: 2, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.json"),
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced: every output checks out and every metric is reported.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, err := run(tiny(w.name), smokeOptions(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d report=%v", res.correct, res.failed, res.attempted, res.report)
				}
				want := units
				if trace {
					want = layerUnits
				}
				if len(res.metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.metrics), len(want))
				}
				for name := range want {
					m, ok := res.metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if trace && w.serve != nil && res.metrics["jpeg.restart_images"].Value == 0 {
					t.Error("serve-mixed decoded no restart-marker inputs")
				}
				if trace && w.name == "train-epoch" && res.metrics["jpeg.entropy_share"].Value <= 0 {
					t.Error("train-epoch traced run reports no entropy share")
				}
			})
		}
	}
}

// corruptMirror is the stock JPEG decoder with one output byte flipped:
// the pixel of the reconstructed image that weighs most in the first
// output pixel after the bilinear resize.
type corruptMirror struct{ fpga.JPEGMirror }

func (corruptMirror) Name() string { return "perfbench-corrupt" }

func (m corruptMirror) ReconstructScaled(job any, outW, outH int) (*pix.Image, int, error) {
	img, scale, err := m.JPEGMirror.ReconstructScaled(job, outW, outH)
	if err == nil {
		x, y := heaviestSource(img.W, outW), heaviestSource(img.H, outH)
		img.Pix[(y*img.W+x)*img.C] ^= 0x80
	}
	return img, scale, err
}

// heaviestSource is the source row (or column) with the larger bilinear
// weight in destination row 0, per imageproc's half-pixel-centre
// mapping with 8-bit weights.
func heaviestSource(src, dst int) int {
	if src == dst {
		return 0
	}
	f := src*256/(2*dst) - 128
	if f < 0 {
		f = 0
	}
	i := f >> 8
	if f&255 >= 128 {
		i++
	}
	return min(i, src-1)
}

func init() { fpga.RegisterMirror(corruptMirror{}) }

// TestOutputCheckCatchesCorruption runs train-epoch through a decoder
// that flips one byte of every image: every prediction must be caught
// as a mismatch.
func TestOutputCheckCatchesCorruption(t *testing.T) {
	w := tiny("train-epoch")
	w.mirror = "perfbench-corrupt"
	res, err := run(w, smokeOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.failed) / float64(res.attempted)
	if res.correct || !(ratio > 0) {
		t.Fatalf("corrupted outputs passed the check: correct=%v failed_ratio=%v", res.correct, ratio)
	}
	if res.failed != res.attempted {
		t.Errorf("%d of %d corrupted predictions caught", res.failed, res.attempted)
	}
}

// TestCoveredUnion pins the self-time arithmetic: overlapping children
// count once, and only inside the parent's interval.
func TestCoveredUnion(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(ivs, 2, 25); got != 1+7+5 {
		t.Errorf("covered = %d, want 13", got)
	}
	if got := windowedQuantile([]float64{1, 2, 3, 100, 1, 2, 3, 4, 5}, 0.5, 4); got != 2.75 {
		t.Errorf("windowedQuantile = %v, want 2.75", got)
	}
}
