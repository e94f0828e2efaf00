package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dlbooster/internal/backends"
	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
	"dlbooster/internal/queue"
)

// The closed-loop epoch workloads (train-epoch, replay-tiered,
// cpu-baseline): a producer — core.Booster with the FPGA-model decoder,
// or backends.CPU — runs passes over the corpus back to back into
// core.Dispatcher, the simulated GPU and an unpaced engine.Inference.

// producer is the decode side both Booster and backends.CPU provide.
type producer interface {
	RunEpoch(core.DataCollector) error
	Batches() *queue.Queue[*core.Batch]
	RecycleBatch(*core.Batch) error
	CloseBatches()
	Close()
}

// epochSystem is one assembled closed-loop pipeline.
type epochSystem struct {
	w       *workload
	items   []core.Item
	prod    producer
	booster *core.Booster // nil on the CPU backend
	cpu     *backends.CPU // nil on the Booster
	busy    *metrics.BusyTracker
	dev     *gpu.Device
	probe   *engineProbe
	tr      *tracer
	wg      sync.WaitGroup
	firstError
	built time.Time
}

// firstError keeps the first error any of a system's goroutines hit.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstError) firstErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// buildEpochSystem assembles the pipeline and starts its dispatcher and
// engine goroutines. tr != nil builds the traced variant.
func buildEpochSystem(w *workload, c *corpus, sk *sink, tr *tracer) (*epochSystem, error) {
	s := &epochSystem{w: w, tr: tr, built: time.Now()}
	s.items = make([]core.Item, len(c.samples))
	for i, smp := range c.samples {
		s.items[i] = core.Item{Ref: fpga.DataRef{Inline: smp.data}, Meta: core.ItemMeta{ClientID: i, Seq: i}}
	}
	imageBytes := w.out * w.out * 3
	switch w.backend {
	case "cpu":
		cfg := backends.CPUConfig{
			BatchSize: w.batch, OutW: w.out, OutH: w.out, Channels: 3,
			PoolBatches: w.poolBatches, Workers: runtime.NumCPU(),
		}
		if tr != nil {
			s.busy = metrics.NewBusyTracker()
			cfg.Busy = s.busy
		}
		cpu, err := backends.NewCPU(cfg)
		if err != nil {
			return nil, err
		}
		s.cpu, s.prod = cpu, cpu
	default:
		cfg := core.Config{
			BatchSize: w.batch, OutW: w.out, OutH: w.out, Channels: 3,
			PoolBatches: w.poolBatches, Mirror: w.mirror,
		}
		if tr != nil {
			cfg.Mirror = timingMirrorName
		}
		if w.cacheRAMShare > 0 {
			epochBytes := int64(len(c.samples) * imageBytes)
			// The spill device runs without its bandwidth pacing, and
			// records are stored uncompressed. The model's ~0.2 ms read
			// sleeps overshoot several-fold on a loaded host, so
			// throughput tracked timer wake-ups. Flate's decode cost per
			// byte swings about 2x with the pixels' byte statistics (stored
			// or Huffman-only blocks), so with compression the replay rate
			// varied 1.4-2x across seeds, even with 384 images.
			var store core.SpillStore = nvme.New(nvme.Config{})
			if tr != nil {
				store = timingSpill{inner: store, tr: tr}
			}
			cfg.Cache = core.CacheConfig{
				RAMBytes:   int64(float64(epochBytes) * w.cacheRAMShare),
				Spill:      store,
				SpillBytes: 2 * epochBytes,
			}
		}
		b, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		s.booster, s.prod = b, b
	}
	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		s.prod.Close()
		return nil, err
	}
	s.dev = dev
	solver, err := core.NewSolver(dev, 2, w.batch*imageBytes)
	if err != nil {
		s.close()
		return nil, err
	}
	s.probe = newEngineProbe(sk, s.prod.RecycleBatch, tr, w.batch, false)
	disp, err := core.NewDispatcher(s.prod.Batches(), s.probe.recycle, []*core.Solver{solver}, core.DispatcherConfig{})
	if err != nil {
		s.close()
		return nil, err
	}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: solver, Classes: classes, Emit: s.probe.emit,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		if err := disp.Run(); err != nil {
			s.fail(fmt.Errorf("dispatcher: %w", err))
		}
	}()
	go func() {
		defer s.wg.Done()
		if _, err := inf.Run(); err != nil {
			s.fail(fmt.Errorf("engine: %w", err))
		}
	}()
	return s, nil
}

// decodePass runs one pass of the corpus through the decode path.
func (s *epochSystem) decodePass() error {
	if s.tr != nil {
		defer s.tr.phase("pass.decode")()
	}
	return s.prod.RunEpoch(&intake{items: s.items, tr: s.tr})
}

// replayPass serves one epoch from the tiered cache.
func (s *epochSystem) replayPass() error {
	if s.tr != nil {
		defer s.tr.phase("cache.replay")()
	}
	s.probe.replayStarted(time.Now())
	err := s.booster.ReplayCache()
	if errors.Is(err, core.ErrCacheUnavailable) {
		return fmt.Errorf("replay-tiered: %w", err)
	}
	return err
}

// measuredPass is the pass the workload times after set-up.
func (s *epochSystem) measuredPass() error {
	if s.w.replay {
		return s.replayPass()
	}
	return s.decodePass()
}

// close ends the batch stream, joins the dispatcher and engine, and
// releases the producer and device.
func (s *epochSystem) close() {
	s.prod.CloseBatches()
	s.wg.Wait()
	s.prod.Close()
	if s.dev != nil {
		s.dev.Close()
	}
}

// epochSetup builds a system and runs its first pass (the warm-up pass;
// on replay-tiered the capture epoch that fills the cache). It returns
// the system, the set-up time and the first pass's throughput.
func epochSetup(w *workload, c *corpus, sk *sink, tr *tracer) (*epochSystem, time.Duration, float64, error) {
	collectGarbage()
	t0 := time.Now()
	s, err := buildEpochSystem(w, c, sk, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	n0 := sk.count()
	t1 := time.Now()
	if err := s.decodePass(); err != nil {
		s.close()
		return nil, 0, 0, err
	}
	if err := sk.waitFor(n0+len(s.items), passTimeout); err != nil {
		s.close()
		return nil, 0, 0, fmt.Errorf("%s first pass: %w", w.name, err)
	}
	t2 := time.Now()
	return s, t2.Sub(t0), float64(len(s.items)) / t2.Sub(t1).Seconds(), nil
}

// collectGarbage frees the garbage of corpus synthesis and of earlier
// set-ups before a set-up is timed, so that each set-up starts from a
// clean heap, as in a fresh process, and does not pay for collecting
// what ran before it.
func collectGarbage() { runtime.GC() }

// passTimeout bounds the wait for one pass's predictions.
const passTimeout = 60 * time.Second

// epochPhase is what a measured phase of back-to-back passes delivered.
type epochPhase struct {
	passes   int
	images   int
	passRate []float64 // images/s of each pass
	lat      []time.Duration
	cpu      time.Duration
}

// measure runs measured passes back to back for at least d.
func (s *epochSystem) measure(sk *sink, d time.Duration) (*epochPhase, error) {
	n := len(s.items)
	n0 := sk.count()
	cpu0 := cpuTime()
	t0 := time.Now()
	start := t0.Sub(sk.base)
	ph := &epochPhase{}
	for ph.passes == 0 || time.Since(t0) < d {
		if err := s.measuredPass(); err != nil {
			return nil, err
		}
		ph.passes++
	}
	if err := sk.waitFor(n0+ph.passes*n, passTimeout); err != nil {
		return nil, err
	}
	ph.cpu = cpuTime() - cpu0
	at, lat := sk.since(n0)
	ph.images = len(at)
	ph.lat = lat
	prev := start
	for k := 1; k <= ph.passes; k++ {
		end := at[k*n-1]
		ph.passRate = append(ph.passRate, float64(n)/(end-prev).Seconds())
		prev = end
	}
	return ph, s.firstErr()
}

// runEpochWorkload is the untraced run of a closed-loop workload:
// opts.setups set-ups (each timed with its first pass), then the
// measured phase on the last one.
func runEpochWorkload(w *workload, c *corpus, o options, res *result) error {
	sk := newSink(c.wants(), len(c.samples))
	var setups []float64
	var firstRates []float64
	var sys *epochSystem
	for i := 0; i < o.setups; i++ {
		s, setup, rate, err := epochSetup(w, c, sk, nil)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		firstRates = append(firstRates, rate)
		if i < o.setups-1 {
			s.close()
			if err := s.firstErr(); err != nil {
				return err
			}
		} else {
			sys = s
		}
	}
	ph, err := sys.measure(sk, o.measure)
	sys.close()
	if err == nil {
		err = sys.firstErr()
	}
	if err != nil {
		return err
	}
	thr := median(ph.passRate)
	res.set("throughput_img_s", thr)
	// Only replay-tiered has a capture epoch (decode plus cache writes).
	// Elsewhere the first pass is a cold warm-up whose rate moved ±20%
	// between runs while throughput held, so the metric is the
	// throughput; the first-pass rates are in the report, and their cost
	// is in setup_s.
	capture := thr
	if w.replay {
		capture = median(firstRates)
	}
	res.set("capture_img_s", capture)
	lat := durationsMS(ph.lat)
	res.set("latency_p50_ms", windowedQuantile(lat, 0.50, latencyWindow))
	res.set("latency_p99_ms", windowedQuantile(lat, 0.99, latencyWindow))
	// A closed loop always runs at its highest sustainable rate.
	res.set("max_rate_rps", thr)
	res.set("cpu_ms_per_img", ms(ph.cpu)/float64(ph.images))
	res.set("setup_s", median(setups))
	res.report["passes"] = ph.passes
	res.report["latency"] = latencyReport(lat)
	res.report["setup_samples_s"] = setups
	res.report["first_pass_img_s"] = firstRates
	return checkEpochConservation(w, c, sk, o.setups+ph.passes, res)
}

// checkEpochConservation books the run's attempted and failed items:
// every pass offers every corpus image once, and each must come back
// exactly once per pass with the reference label.
func checkEpochConservation(w *workload, c *corpus, sk *sink, passes int, res *result) error {
	attempted := passes * len(c.samples)
	mism := sk.mismatches()
	delivered := sk.count()
	lostOrDup := 0
	for _, n := range sk.keyCounts() {
		if d := int(n) - passes; d != 0 {
			if d < 0 {
				d = -d
			}
			lostOrDup += d
		}
	}
	res.attempted += attempted
	res.failed += mism + max(attempted-delivered, 0)
	res.report["mismatched"] = mism
	res.report["never_answered"] = max(attempted-delivered, 0)
	if lostOrDup != 0 || delivered > attempted {
		res.correct = false
		res.report["conservation"] = fmt.Sprintf("%d of %d items lost or duplicated", lostOrDup, attempted)
	}
	if mism > 0 {
		res.correct = false
	}
	return nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
