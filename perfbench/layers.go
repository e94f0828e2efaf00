package main

import (
	"encoding/binary"
	"sync"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/queue"
)

// layerUnits names every per-layer metric's unit; BENCHMARK.json lists
// the same. A layer a workload does not exercise reports 0.
var layerUnits = map[string]string{
	"jpeg.parse_us":             "us/img",
	"jpeg.entropy_us":           "us/img",
	"jpeg.reconstruct_us":       "us/img",
	"jpeg.entropy_share":        "ratio",
	"jpeg.scaled_ratio":         "ratio",
	"jpeg.restart_images":       "count",
	"fpga.resize_us":            "us/img",
	"fpga.parser_busy":          "ratio",
	"fpga.huffman_busy":         "ratio",
	"fpga.idct_busy":            "ratio",
	"fpga.resize_busy":          "ratio",
	"hugepage.free_empty_share": "ratio",
	"core.full_queue_depth":     "batches",
	"core.collect_wait_us":      "us/item",
	"core.batch_interval_ms":    "ms/batch",
	"core.recycle_us":           "us/batch",
	"core.partial_flush_ratio":  "ratio",
	"core.fallback_decodes":     "count",
	"cache.ram_hit_ratio":       "ratio",
	"cache.spill_hit_ratio":     "ratio",
	"cache.redecode_ratio":      "ratio",
	"cache.replay_ms_per_epoch": "ms/epoch",
	"cache.demotions":           "count",
	"nvme.read_us":              "us/read",
	"nvme.write_us":             "us/write",
	"nvme.bytes_read":           "bytes",
	"nvme.bytes_written":        "bytes",
	"nvme.compress_ratio":       "ratio",
	"gpu.copy_ms":               "ms",
	"gpu.copy_bytes":            "bytes",
	"engine.data_wait_share":    "ratio",
	"engine.batch_fill":         "ratio",
	"fleet.submit_us":           "us/req",
	"fleet.shed_ratio":          "ratio",
	"fleet.queue_depth":         "items",
	"fleet.shard_skew":          "ratio",
	"fleet.steals":              "count",
	"backends.cpu_busy_share":   "ratio",
	"backends.scaled_ratio":     "ratio",
	"trace.overhead_ratio":      "ratio",
}

func (r *result) layer(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: layerUnits[name]}
}

// sampler polls queue and pool occupancy every millisecond while a
// traced system runs.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup

	samples, poolEmpty int
	fullDepth          int
	ingestDepth        int
}

// startSampler polls the given probes: pools report whether a free
// batch buffer is left, fulls are Full_Batch_Queues, ingests are fleet
// ingest queues.
func startSampler(freeLens []func() int, fulls []*queue.Queue[*core.Batch], ingests []*queue.Queue[core.Item]) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			s.samples++
			for _, f := range freeLens {
				if f() == 0 {
					s.poolEmpty++
				}
			}
			for _, q := range fulls {
				s.fullDepth += q.Len()
			}
			for _, q := range ingests {
				s.ingestDepth += q.Len()
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// boardStats sums the decoder boards' per-stage accounting and their
// stage widths (each board has one parser).
type boardStats struct {
	parser, huffman, idct, resize fpga.StageStats
	boards                        int
	ways                          fpga.Config
}

func sumBoards(boosters []*core.Booster) boardStats {
	var st boardStats
	add := func(dst *fpga.StageStats, s fpga.StageStats) {
		dst.Jobs += s.Jobs
		dst.Busy += s.Busy
	}
	for _, b := range boosters {
		for _, d := range b.Devices() {
			p, h, i, z := d.Stats()
			add(&st.parser, p)
			add(&st.huffman, h)
			add(&st.idct, i)
			add(&st.resize, z)
			c := d.Config()
			st.boards++
			st.ways.HuffmanWays += c.HuffmanWays
			st.ways.IDCTWays += c.IDCTWays
			st.ways.ResizeWays += c.ResizeWays
		}
	}
	return st
}

// reportDecodeLayers books the jpeg and fpga layer metrics of a traced
// system that lived for wall.
func reportDecodeLayers(res *result, tr *tracer, boosters []*core.Booster, wall time.Duration) {
	res.layer("jpeg.parse_us", tr.parse.meanUS())
	res.layer("jpeg.entropy_us", tr.entropy.meanUS())
	res.layer("jpeg.reconstruct_us", tr.reconstruct.meanUS())
	decode := tr.parse.total() + tr.entropy.total() + tr.reconstruct.total()
	res.layer("jpeg.entropy_share", ratio(float64(tr.entropy.total()), float64(decode)))
	res.layer("jpeg.scaled_ratio", ratio(float64(tr.scaled.Load()), float64(tr.reconstruct.n.Load())))
	res.layer("jpeg.restart_images", float64(tr.restart.Load()))
	st := sumBoards(boosters)
	res.layer("fpga.resize_us", ratio(us(st.resize.Busy), float64(st.resize.Jobs)))
	share := func(busy time.Duration, ways int) float64 {
		return ratio(float64(busy), float64(wall)*float64(ways))
	}
	res.layer("fpga.parser_busy", share(st.parser.Busy, st.boards))
	res.layer("fpga.huffman_busy", share(st.huffman.Busy, st.ways.HuffmanWays))
	res.layer("fpga.idct_busy", share(st.idct.Busy, st.ways.IDCTWays))
	res.layer("fpga.resize_busy", share(st.resize.Busy, st.ways.ResizeWays))
	var fallbacks int64
	for _, b := range boosters {
		fallbacks += b.FallbackDecodes()
	}
	res.layer("core.fallback_decodes", float64(fallbacks))
}

// reportDispatchLayers books the core dispatch, gpu and engine metrics
// gathered by the engine probes and the sampler.
func reportDispatchLayers(res *result, tr *tracer, probes []*engineProbe, sm *sampler, pools int, partialFlushes int64, copyBusy time.Duration, copyBytes int64) {
	var interval timer
	var batches, images, slots int
	var wait, active time.Duration
	for _, p := range probes {
		interval.n.Add(p.interval.n.Load())
		interval.ns.Add(p.interval.ns.Load())
		batches += p.recycleN
		images += p.images
		slots += p.batches * p.batch
		wait += p.wait
		active += p.lastEnd.Sub(p.first)
	}
	res.layer("core.batch_interval_ms", interval.meanUS()/1e3)
	res.layer("core.recycle_us", tr.recycle.meanUS())
	res.layer("core.collect_wait_us", tr.collectGap.meanUS())
	res.layer("core.partial_flush_ratio", ratio(float64(partialFlushes), float64(batches)))
	res.layer("hugepage.free_empty_share", ratio(float64(sm.poolEmpty), float64(sm.samples*pools)))
	res.layer("core.full_queue_depth", ratio(float64(sm.fullDepth), float64(sm.samples)))
	res.layer("gpu.copy_ms", ms(copyBusy))
	res.layer("gpu.copy_bytes", float64(copyBytes))
	res.layer("engine.data_wait_share", ratio(float64(wait), float64(active)))
	res.layer("engine.batch_fill", ratio(float64(images), float64(slots)))
}

// reportCacheLayers books the tiered cache and NVMe spill metrics.
func reportCacheLayers(res *result, tr *tracer, b *core.Booster, replays []time.Duration) {
	var ramHits, spillHits, redecodes, served, demotions float64
	if b != nil && b.Cache() != nil {
		c := b.Snapshot().Counters
		ramHits = float64(c["cache_ram_hit_images_total"])
		spillHits = float64(c["cache_spill_hit_images_total"])
		redecodes = float64(c["cache_redecode_images_total"])
		served = float64(c["cache_replay_images_total"]) + redecodes
		demotions = float64(b.Cache().Stats().Demotions)
	}
	res.layer("cache.ram_hit_ratio", ratio(ramHits, served))
	res.layer("cache.spill_hit_ratio", ratio(spillHits, served))
	res.layer("cache.redecode_ratio", ratio(redecodes, served))
	var replayMS []float64
	for _, d := range replays {
		replayMS = append(replayMS, ms(d))
	}
	res.layer("cache.replay_ms_per_epoch", mean(replayMS))
	res.layer("cache.demotions", demotions)
	res.layer("nvme.read_us", tr.spillRead.meanUS())
	res.layer("nvme.write_us", tr.spillWrite.meanUS())
	res.layer("nvme.bytes_read", float64(tr.spillReadBytes.Load()))
	res.layer("nvme.bytes_written", float64(tr.spillWriteBytes.Load()))
	res.layer("nvme.compress_ratio", ratio(float64(tr.spillRaw.Load()), float64(tr.spillStored.Load())))
}

// noteSpillRecord reads a spill record's header (docs/CACHE.md: 20
// bytes, raw payload length at offset 12, little-endian) to book the
// raw and stored payload sizes behind nvme.compress_ratio.
func (t *tracer) noteSpillRecord(rec []byte) {
	if len(rec) < core.SpillHeaderSize || string(rec[:4]) != core.SpillMagic {
		return
	}
	t.spillRaw.Add(int64(binary.LittleEndian.Uint64(rec[12:20])))
	t.spillStored.Add(int64(len(rec) - core.SpillHeaderSize))
}

// zeroLayers books 0 for every per-layer metric, so each workload
// reports the full set; layers it exercises overwrite theirs.
func zeroLayers(res *result) {
	for name := range layerUnits {
		res.layer(name, 0)
	}
}

// traceEpochWorkload is the traced run of a closed-loop workload: an
// untraced system measured for half the period, then a traced one for
// the other half; per-layer metrics come from the traced system.
func traceEpochWorkload(w *workload, c *corpus, o options, res *result) error {
	half := o.measure / 2
	sk := newSink(c.wants(), len(c.samples))
	passes := 0
	plain, _, _, err := epochSetup(w, c, sk, nil)
	if err != nil {
		return err
	}
	ph, err := plain.measure(sk, half)
	plain.close()
	if err == nil {
		err = plain.firstErr()
	}
	if err != nil {
		return err
	}
	passes += 1 + ph.passes
	untraced := median(ph.passRate)

	tr := newTracer(c)
	activeTracer.Store(tr)
	defer activeTracer.Store(nil)
	sys, _, _, err := epochSetup(w, c, sk, tr)
	if err != nil {
		return err
	}
	var freeLens []func() int
	if sys.booster != nil {
		freeLens = append(freeLens, sys.booster.Pool().FreeLen)
	}
	sm := startSampler(freeLens, []*queue.Queue[*core.Batch]{sys.prod.Batches()}, nil)
	copy0, bytes0 := sys.dev.CopyStats()
	tph, err := sys.measure(sk, half)
	sm.finish()
	copy1, bytes1 := sys.dev.CopyStats()
	wall := time.Since(sys.built)
	sys.close()
	if err == nil {
		err = sys.firstErr()
	}
	if err != nil {
		return err
	}
	passes += 1 + tph.passes

	zeroLayers(res)
	var boosters []*core.Booster
	var partial int64
	if sys.booster != nil {
		boosters = append(boosters, sys.booster)
		partial = sys.booster.PartialFlushes()
	}
	if sys.cpu != nil {
		partial = sys.cpu.PartialFlushes()
		res.layer("backends.cpu_busy_share", ratio(sys.busy.Busy("preprocess"), wall.Seconds()*float64(sys.cpu.Workers())))
		res.layer("backends.scaled_ratio", ratio(float64(sys.cpu.ScaledDecodes()), float64(sys.cpu.Images())))
	}
	reportDecodeLayers(res, tr, boosters, wall)
	reportDispatchLayers(res, tr, []*engineProbe{sys.probe}, sm, len(freeLens), partial, copy1-copy0, bytes1-bytes0)
	reportCacheLayers(res, tr, sys.booster, tr.phaseDurations("cache.replay"))
	res.layer("trace.overhead_ratio", ratio(median(tph.passRate), untraced))
	res.report["untraced_throughput_img_s"] = untraced
	res.report["traced_throughput_img_s"] = median(tph.passRate)
	finishTrace(res, tr, o)
	return checkEpochConservation(w, c, sk, passes, res)
}

// finishTrace writes the spans and reports each layer's self time.
func finishTrace(res *result, tr *tracer, o options) {
	res.report["self_time_ms"] = tr.selfTimes()
	res.report["spans"] = tr.spanCount()
	if err := tr.write(o.spans); err != nil {
		res.report["spans_error"] = err.Error()
	} else {
		res.report["spans_file"] = o.spans
	}
}

// phaseDurations returns the durations of every phase span named name.
func (t *tracer) phaseDurations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// traceServeWorkload is the traced run of serve-mixed: an untraced fleet
// and then a traced one, each set up once and run as the closed loop for
// half the period (the open-loop probe is left out).
func traceServeWorkload(w *workload, c *corpus, o options, res *result) error {
	cfg := w.serve
	half := o.measure / 2
	imgs := imageSequence(o.seed, int(half.Seconds()*maxServeRate), c)
	sk := newSink(c.wants(), 2*(len(c.samples)+len(imgs)))
	seq := 0
	plain, _, _, err := serveSetup(w, c, sk, nil, &seq)
	if err != nil {
		return err
	}
	ph1, err := plain.closedLoop(sk, cfg, half, imgs, &seq)
	plain.close()
	if err == nil {
		err = plain.firstErr()
	}
	if err != nil {
		return err
	}

	tr := newTracer(c)
	activeTracer.Store(tr)
	defer activeTracer.Store(nil)
	sys, _, _, err := serveSetup(w, c, sk, tr, &seq)
	if err != nil {
		return err
	}
	roll0 := sys.fl.Snapshot().Total.Counters
	simd0, par0 := jpeg.KernelSIMDDecodes(), jpeg.ParallelScans()
	rec0, rst0 := tr.reconstruct.n.Load(), tr.restart.Load()
	var boosters []*core.Booster
	var freeLens []func() int
	var fulls []*queue.Queue[*core.Batch]
	var ingests []*queue.Queue[core.Item]
	for _, sh := range sys.fl.Shards() {
		b := sh.Booster()
		boosters = append(boosters, b)
		freeLens = append(freeLens, b.Pool().FreeLen)
		fulls = append(fulls, b.Batches())
		ingests = append(ingests, sh.Queue())
	}
	copy0, bytes0 := copyStats(sys.devs)
	sm := startSampler(freeLens, fulls, ingests)
	endPhase := tr.phase("serve.closed")
	ph2, err := sys.closedLoop(sk, cfg, half, imgs, &seq)
	endPhase()
	sm.finish()
	if err != nil {
		sys.close()
		return err
	}
	roll1 := sys.fl.Snapshot().Total.Counters
	simd1, par1 := jpeg.KernelSIMDDecodes(), jpeg.ParallelScans()
	copy1, bytes1 := copyStats(sys.devs)
	var partial int64
	var perShard []float64
	for _, b := range boosters {
		partial += b.PartialFlushes()
		perShard = append(perShard, float64(b.Images()))
	}
	steals := sys.fl.Steals()
	wall := time.Since(tr.base)
	sys.close()
	if err := sys.firstErr(); err != nil {
		return err
	}

	zeroLayers(res)
	reportDecodeLayers(res, tr, boosters, wall)
	reportDispatchLayers(res, tr, sys.probes, sm, len(freeLens), partial, copy1-copy0, bytes1-bytes0)
	reportCacheLayers(res, tr, nil, nil)
	res.layer("fleet.submit_us", tr.submit.meanUS())
	res.layer("fleet.shed_ratio", ratio(float64(ph2.shed), float64(ph2.offered)))
	res.layer("fleet.queue_depth", ratio(float64(sm.ingestDepth), float64(sm.samples)))
	lo, hi := perShard[0], perShard[0]
	for _, v := range perShard {
		lo, hi = min(lo, v), max(hi, v)
	}
	res.layer("fleet.shard_skew", ratio(hi-lo, mean(perShard)))
	res.layer("fleet.steals", float64(steals))
	res.layer("trace.overhead_ratio", ratio(median(ph2.rate), median(ph1.rate)))
	// The kernel counters are process-global and every shard registers
	// them, so the fleet rollup counts each decode once per shard. The
	// benchmark's own counts come from its wrappers; the rollup is shown
	// beside them, uncorrected.
	res.report["kernel_counters"] = map[string]any{
		"wrapper_reconstructs":                     tr.reconstruct.n.Load() - rec0,
		"wrapper_restart_images":                   tr.restart.Load() - rst0,
		"process_decode_kernel_simd_total":         simd1 - simd0,
		"process_decode_parallel_scans_total":      par1 - par0,
		"fleet_rollup_decode_kernel_simd_total":    roll1["decode_kernel_simd_total"] - roll0["decode_kernel_simd_total"],
		"fleet_rollup_decode_parallel_scans_total": roll1["decode_parallel_scans_total"] - roll0["decode_parallel_scans_total"],
	}
	res.report["untraced_throughput_img_s"] = median(ph1.rate)
	res.report["traced_throughput_img_s"] = median(ph2.rate)
	finishTrace(res, tr, o)
	bookServe(res, sk, 2*len(c.samples)+ph1.offered+ph2.offered, ph1.shed+ph2.shed, nil, nil)
	return nil
}

// copyStats sums the devices' copy-engine busy time and bytes.
func copyStats(devs []*gpu.Device) (time.Duration, int64) {
	var busy time.Duration
	var bytes int64
	for _, d := range devs {
		b, n := d.CopyStats()
		busy, bytes = busy+b, bytes+n
	}
	return busy, bytes
}
