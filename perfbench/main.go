// Command perfbench is the repository's benchmark. It runs one named
// workload through the real pipeline — the synthetic corpus through
// core.Booster (host bridger + FPGA-model decoder), core.Dispatcher, the
// simulated GPU and engine.Inference, with variants through fleet,
// core.TieredCache/nvme and backends.CPU — checks every prediction
// against a reference decode, and prints the workload's metrics.
//
//	perfbench --workload train-epoch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with all
// tracing off; with --trace 1 it prints the per-layer metrics of a
// separate traced run, timed from outside through the layers' public
// seams, and writes that run's spans. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dlbooster/internal/jpeg"
)

// workload is one named benchmark workload.
type workload struct {
	name        string
	kinds       []imageKind
	out         int // output edge (out×out×3)
	batch       int
	poolBatches int
	ref         refDecoder
	// mirror is the decoder image the untraced run loads ("" = the
	// stock "jpeg"); the traced run always loads the timing mirror.
	mirror string
	// Closed-loop variants.
	backend       string  // "booster" or "cpu"
	replay        bool    // measured passes replay the tiered cache
	cacheRAMShare float64 // RAM tier as a share of the decoded dataset
	// serve is set on the serving workload.
	serve *serveConfig
}

// ilsvrc is the ILSVRC-like input: 500×375 4:2:0, no restart markers.
func ilsvrc(n int) imageKind { return imageKind{name: "ilsvrc-500x375", count: n, w: 500, h: 375} }

// trainImages is the closed-loop corpus size: ~3.9 MB of compressed
// input, well beyond a core's L2.
const trainImages = 96

func workloads() []*workload {
	return []*workload{
		{
			name: "train-epoch", kinds: []imageKind{ilsvrc(trainImages)},
			out: 96, batch: 16, poolBatches: 4, ref: refStaged, backend: "booster",
		},
		{
			name: "replay-tiered", kinds: []imageKind{ilsvrc(trainImages)},
			out: 96, batch: 16, poolBatches: 4, ref: refStaged, backend: "booster",
			replay: true, cacheRAMShare: 0.5,
		},
		{
			name: "serve-mixed",
			kinds: []imageKind{
				ilsvrc(48),
				{name: "dri-1024x768", count: 16, w: 1024, h: 768, restart: serveRestartInterval},
			},
			out: 224, batch: 8, poolBatches: 8, ref: refStaged, backend: "booster",
			serve: &defaultServe,
		},
		{
			name: "cpu-baseline", kinds: []imageKind{ilsvrc(trainImages)},
			out: 96, batch: 16, poolBatches: 4, ref: refFused, backend: "cpu",
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setups is the number of set-ups per untraced run; setup_s (and
// capture_img_s on replay-tiered) is the median over them.
const setups = 21

// options are the run parameters every workload shares.
type options struct {
	seed    int64
	measure time.Duration // length of the measured phase
	setups  int           // set-ups per untraced run; setup_s is their median
	trace   bool
	spans   string // where the traced run writes its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	report    map[string]any
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, report: map[string]any{}}
}

func (r *result) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: units[name]}
}

// units names every metric's unit; BENCHMARK.json lists the same.
var units = map[string]string{
	"throughput_img_s": "img/s",
	"capture_img_s":    "img/s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"max_rate_rps":     "req/s",
	"cpu_ms_per_img":   "ms/img",
	"peak_rss_mb":      "MiB",
	"setup_s":          "s",
}

// run executes one workload and returns its result.
func run(w *workload, o options) (*result, error) {
	res := newResult()
	c, err := buildCorpus(o.seed, w.kinds, w.out, w.out, w.ref)
	if err != nil {
		return nil, err
	}
	res.report["corpus_sha256"] = c.digest
	res.report["corpus_images"] = len(c.samples)
	res.report["corpus_bytes"] = c.bytes
	res.report["corpus_synthesis_s"] = c.synth.Seconds()
	switch {
	case o.trace && w.serve != nil:
		err = traceServeWorkload(w, c, o, res)
	case o.trace:
		err = traceEpochWorkload(w, c, o, res)
	case w.serve != nil:
		err = runServeWorkload(w, c, o, res)
	default:
		err = runEpochWorkload(w, c, o, res)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.set("peak_rss_mb", peakRSSMB())
	}
	res.report["failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	return res, nil
}

// wants lists each corpus image's reference label.
func (c *corpus) wants() []int {
	out := make([]int, len(c.samples))
	for i, s := range c.samples {
		out[i] = s.want
	}
	return out
}

// host is the fingerprint printed with every result.
func host() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   model,
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"jpeg_kernel": jpeg.KernelName(),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	spans := flag.String("spans", "", "traced run: span file (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range workloads() {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	o := options{seed: *seed, measure: time.Duration(*seconds) * time.Second, setups: setups, trace: *trace == 1, spans: *spans}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", w.name, o.seed)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	res, err := run(w, o)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatal(err)
	}
	report := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": *seconds, "trace": *trace,
		"host": host(), "details": res.report,
	}
	if b, err := json.Marshal(map[string]any{"report": report}); err == nil {
		fmt.Println(string(b))
	}
	names := sortedKeys(res.metrics)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	fmt.Printf("%-28s %14.4f ratio (failed %d of %d attempted)\n", "failed_ratio",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	out, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
