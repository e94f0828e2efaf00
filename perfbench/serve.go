package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/fleet"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/perf"
)

// The serving workload (serve-mixed): a 2-shard fleet of Boosters with
// deadline batching and a shedding ingest queue, into engines paced at
// perf.GoogLeNet. Its metrics come from a closed loop that keeps a
// fixed number of requests in flight through fleet.Submit. An open-loop
// probe follows: seeded Poisson arrivals sent from one goroutine at a
// reporting rate, then a ladder of rates. The probe's results are
// reported but not gated: at moderate load a shared 2-vCPU virtual
// machine's wake-up latency moved open-loop percentiles by ±50% between
// runs.

// serveRestartInterval is the DRI interval (MCUs) of the large inputs:
// one MCU row of a 1024-wide 4:2:0 image.
const serveRestartInterval = 64

// maxServeRate bounds the closed loop's request rate, sizing its
// request sequence (the sequence wraps if a faster host outruns it).
const maxServeRate = 400

// serveConfig fixes the serving workload. The rates, the latency limit
// and the failure limit are constants, quoted in BENCHMARK.json.
type serveConfig struct {
	shards       int
	queueCap     int
	batchTimeout time.Duration
	// clients is the closed loop's number of requests in flight.
	clients int
	// reportRate is the open-loop probe's first rate, offered for
	// report. A rung's percentiles are medians over windows consecutive
	// stretches of its answers.
	reportRate float64
	report     time.Duration
	windows    int
	// ladder is the fixed ladder of offered rates (7.5% apart) probed
	// after the reporting rung, rung seconds each; the report's
	// open_loop.max_rate_rps is the highest rung that holds: its p99
	// within p99Limit, sheds plus never-answered within failLimit, and
	// no backlog growth.
	ladder    []float64
	rung      time.Duration
	p99Limit  time.Duration
	failLimit float64
	drain     time.Duration // how long a rung waits for its last answers
}

var defaultServe = serveConfig{
	shards:       2,
	queueCap:     32,
	batchTimeout: 10 * time.Millisecond,
	clients:      12,
	reportRate:   50,
	report:       5 * time.Second,
	windows:      8,
	ladder: []float64{40, 43, 46, 50, 53, 57, 62, 66, 71, 77, 82, 89, 95,
		102, 110, 118, 127, 137, 147, 158, 170, 183, 196, 211, 227},
	rung:      time.Second,
	p99Limit:  250 * time.Millisecond,
	failLimit: 0.01,
	drain:     3 * time.Second,
}

// climb finds the highest rung of the ladder that holds (-1 if none) by
// bisection: the answer a full climb gives when holding is monotone in
// the rate, from about log2(len) rungs. A rung that fails is offered
// once more before it counts as failed, so one stall of the shared host
// does not cut the search short; an overloaded rung fails both times.
func climb(cfg *serveConfig, try func(i int) bool) int {
	held, failed := -1, len(cfg.ladder)
	for failed-held > 1 {
		mid := (held + failed) / 2
		if try(mid) || try(mid) {
			held = mid
		} else {
			failed = mid
		}
	}
	return held
}

// serveSystem is one assembled fleet with its per-shard dispatchers
// and engines.
type serveSystem struct {
	fl     *fleet.Fleet
	probes []*engineProbe
	devs   []*gpu.Device
	items  []core.Item // one per corpus image, Meta filled per request
	wg     sync.WaitGroup
	firstError
	tr *tracer
}

func buildServeSystem(w *workload, c *corpus, sk *sink, tr *tracer) (*serveSystem, error) {
	cfg := w.serve
	mirror := w.mirror
	if tr != nil {
		mirror = timingMirrorName
	}
	fl, err := fleet.New(fleet.Config{
		Shards: cfg.shards, Placement: fleet.PlacementLeastLoaded, QueueCap: cfg.queueCap,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(core.Config{
				BatchSize: w.batch, OutW: w.out, OutH: w.out, Channels: 3,
				PoolBatches: w.poolBatches, BatchTimeout: cfg.batchTimeout, Mirror: mirror,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	s := &serveSystem{fl: fl, tr: tr}
	for _, smp := range c.samples {
		s.items = append(s.items, core.Item{Ref: fpga.DataRef{Inline: smp.data}})
	}
	for _, sh := range fl.Shards() {
		b := sh.Booster()
		dev, err := gpu.NewDevice(sh.ID(), 1<<30)
		if err != nil {
			s.close()
			return nil, err
		}
		s.devs = append(s.devs, dev)
		solver, err := core.NewSolver(dev, 2, w.batch*w.out*w.out*3)
		if err != nil {
			s.close()
			return nil, err
		}
		p := newEngineProbe(sk, b.RecycleBatch, tr, w.batch, true)
		s.probes = append(s.probes, p)
		disp, err := core.NewDispatcher(b.Batches(), p.recycle, []*core.Solver{solver}, core.DispatcherConfig{})
		if err != nil {
			s.close()
			return nil, err
		}
		inf, err := engine.NewInference(engine.InferenceConfig{
			Profile: perf.GoogLeNet, Solver: solver, Classes: classes, PaceCompute: true, Emit: p.emit,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		id := sh.ID()
		s.wg.Add(2)
		go func() {
			defer s.wg.Done()
			if err := disp.Run(); err != nil {
				s.fail(fmt.Errorf("shard %d dispatcher: %w", id, err))
			}
		}()
		go func() {
			defer s.wg.Done()
			if _, err := inf.Run(); err != nil {
				s.fail(fmt.Errorf("shard %d engine: %w", id, err))
			}
		}()
	}
	fl.Start()
	return s, nil
}

// close drains the fleet (every admitted item settles), joins the
// dispatchers and engines, and tears the shards down.
func (s *serveSystem) close() {
	if err := s.fl.Drain(); err != nil {
		s.fail(err)
	}
	s.wg.Wait()
	s.fl.Close()
	for _, d := range s.devs {
		d.Close()
	}
}

// submit sends one request for corpus image img, due at due.
func (s *serveSystem) submit(img, seq int, due time.Time) fleet.Admission {
	it := s.items[img]
	it.Meta = core.ItemMeta{ClientID: img, Seq: seq, ReceivedAt: due}
	if s.tr == nil {
		_, adm := s.fl.Submit(it, uint64(seq))
		return adm
	}
	t0 := time.Now()
	_, adm := s.fl.Submit(it, uint64(seq))
	t1 := time.Now()
	s.tr.submit.add(t1.Sub(t0))
	s.tr.record("fleet.submit", int64(img), t0, t1)
	return adm
}

// request is one scheduled arrival: which corpus image, and when
// relative to the rung's start.
type request struct {
	img int
	at  time.Duration
}

// schedule draws a rung's arrivals: n = rate×d requests at uniformly
// random instants of [0, d) — a Poisson process conditioned on its
// count. Each kind of input gets its corpus share of the requests
// exactly (¾ small, ¼ large for serve-mixed), in random order, each
// request for a random image of its kind.
func schedule(seed int64, rung int, rate float64, d time.Duration, c *corpus) []request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(rung)))
	n := int(math.Round(rate * d.Seconds()))
	imgs := pickImages(rng, n, c)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{img: imgs[i], at: at[i]}
	}
	return reqs
}

// imageSequence is the closed loop's seeded request sequence of n
// images, with the same kind shares as schedule.
func imageSequence(seed int64, n int, c *corpus) []int {
	return pickImages(rand.New(rand.NewSource(seed*7919-1)), n, c)
}

// pickImages draws n corpus images, giving each kind its corpus share
// of them exactly, in random order.
func pickImages(rng *rand.Rand, n int, c *corpus) []int {
	var byKind [][]int
	for i, smp := range c.samples {
		for len(byKind) <= smp.kind {
			byKind = append(byKind, nil)
		}
		byKind[smp.kind] = append(byKind[smp.kind], i)
	}
	kinds := make([]int, 0, n)
	for k, imgs := range byKind {
		share := int(math.Round(float64(n) * float64(len(imgs)) / float64(len(c.samples))))
		if k == len(byKind)-1 {
			share = n - len(kinds)
		}
		for j := 0; j < share; j++ {
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]int, n)
	for i, k := range kinds {
		out[i] = byKind[k][rng.Intn(len(byKind[k]))]
	}
	return out
}

// rungResult is what one offered rate produced.
type rungResult struct {
	Rate       float64 `json:"rate_rps"`
	Seconds    float64 `json:"seconds"`
	Offered    int     `json:"offered"`
	Shed       int     `json:"shed"`
	Answered   int     `json:"answered"`
	Unanswered int     `json:"unanswered"`
	Mismatched int     `json:"mismatched"`
	P50        float64 `json:"p50_ms"`
	P99        float64 `json:"p99_ms"`
	WindowP50  float64 `json:"window_p50_ms"`
	WindowP99  float64 `json:"window_p99_ms"`
	Beyond99   int     `json:"samples_beyond_p99"`
	LagP99     float64 `json:"lag_p99_ms"`
	BacklogMid int     `json:"backlog_mid"`
	BacklogEnd int     `json:"backlog_end"`
	Held       bool    `json:"held"`
}

// runRung offers reqs open-loop. Each request is timed from when it was
// due, not from when it was sent; a shed or never-answered request
// counts as missing the latency limit.
func (s *serveSystem) runRung(sk *sink, cfg *serveConfig, rate float64, d time.Duration, reqs []request, seq *int) rungResult {
	r := rungResult{Rate: rate, Seconds: d.Seconds(), Offered: len(reqs)}
	mism0 := sk.mismatches()
	n0 := sk.count()
	t0 := time.Now().Add(2 * time.Millisecond)
	lags := make([]float64, 0, len(reqs))
	admitted := 0
	for i, q := range reqs {
		due := t0.Add(q.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, ms(time.Since(due)))
		if s.submit(q.img, *seq, due) == fleet.AdmitOK {
			admitted++
		} else {
			r.Shed++
		}
		*seq++
		if i == len(reqs)/2 {
			r.BacklogMid = admitted - (sk.count() - n0)
		}
	}
	r.BacklogEnd = admitted - (sk.count() - n0)
	_ = sk.waitFor(n0+admitted, cfg.drain)
	at, lat := sk.since(n0)
	r.Answered = len(at)
	r.Unanswered = admitted - r.Answered
	r.Mismatched = sk.mismatches() - mism0
	lms := durationsMS(lat)
	for i := 0; i < r.Shed+max(r.Unanswered, 0); i++ {
		lms = append(lms, math.Inf(1))
	}
	r.P50 = quantile(lms, 0.50)
	r.P99 = quantile(lms, 0.99)
	w := max(len(lms)/cfg.windows, 1)
	r.WindowP50 = windowedQuantile(lms, 0.50, w)
	r.WindowP99 = windowedQuantile(lms, 0.99, w)
	for _, v := range lms {
		if v > r.P99 {
			r.Beyond99++
		}
	}
	r.LagP99 = quantile(lags, 0.99)
	failed := r.Shed + max(r.Unanswered, 0)
	// Answers leave in batches, so the backlog read at an instant swings
	// by up to two batches per shard without growing.
	slack := cfg.shards * 2 * 8
	r.Held = r.WindowP99 <= ms(cfg.p99Limit) && float64(failed) <= cfg.failLimit*float64(r.Offered) &&
		r.BacklogEnd <= r.BacklogMid+slack
	// JSON cannot carry the +Inf of a percentile that fell on a failed
	// request; the report shows it as -1.
	for _, v := range []*float64{&r.P50, &r.P99, &r.WindowP50, &r.WindowP99} {
		if math.IsInf(*v, 0) {
			*v = -1
		}
	}
	return r
}

// warmPass sends every corpus image once, closed-loop (a shed request
// is resent), and waits for all the answers. It returns the pass's
// throughput.
func (s *serveSystem) warmPass(sk *sink, seq *int) (float64, error) {
	n0 := sk.count()
	t0 := time.Now()
	for img := range s.items {
		for s.submit(img, *seq, time.Now()) != fleet.AdmitOK {
			time.Sleep(time.Millisecond)
		}
		*seq++
	}
	if err := sk.waitFor(n0+len(s.items), passTimeout); err != nil {
		return 0, fmt.Errorf("serve-mixed warm pass: %w", err)
	}
	return float64(len(s.items)) / time.Since(t0).Seconds(), nil
}

// serveSetup builds a fleet and runs its warm pass, returning the
// set-up time and the warm pass's throughput.
func serveSetup(w *workload, c *corpus, sk *sink, tr *tracer, seq *int) (*serveSystem, time.Duration, float64, error) {
	collectGarbage()
	t0 := time.Now()
	s, err := buildServeSystem(w, c, sk, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	rate, err := s.warmPass(sk, seq)
	if err != nil {
		s.close()
		return nil, 0, 0, err
	}
	return s, time.Since(t0), rate, nil
}

// closedPhase is what a closed-loop serving phase delivered.
type closedPhase struct {
	offered, shed, answered int
	rate                    []float64 // answers/s of each window of len(corpus) answers
	lat                     []time.Duration
	cpu                     time.Duration
}

// closedLoop keeps cfg.clients requests in flight for d: each answer
// releases the next request, sent at once and timed from its send. The
// images follow a seeded sequence with the corpus's kind shares.
func (s *serveSystem) closedLoop(sk *sink, cfg *serveConfig, d time.Duration, imgs []int, seq *int) (*closedPhase, error) {
	ph := &closedPhase{}
	n0 := sk.count()
	cpu0 := cpuTime()
	t0 := time.Now()
	start := t0.Sub(sk.base)
	admitted := 0
	for time.Since(t0) < d {
		if admitted-(sk.count()-n0) >= cfg.clients {
			if err := sk.waitFor(n0+admitted-cfg.clients+1, passTimeout); err != nil {
				return nil, fmt.Errorf("serve-mixed closed loop: %w", err)
			}
			continue
		}
		ph.offered++
		if s.submit(imgs[ph.offered%len(imgs)], *seq, time.Now()) == fleet.AdmitOK {
			admitted++
		} else {
			ph.shed++
		}
		*seq++
	}
	if err := sk.waitFor(n0+admitted, passTimeout); err != nil {
		return nil, fmt.Errorf("serve-mixed closed loop: %w", err)
	}
	ph.cpu = cpuTime() - cpu0
	at, lat := sk.since(n0)
	ph.answered, ph.lat = len(at), lat
	n := len(s.items)
	prev := start
	for k := 1; k*n <= len(at); k++ {
		end := at[k*n-1]
		ph.rate = append(ph.rate, float64(n)/(end-prev).Seconds())
		prev = end
	}
	return ph, nil
}

func runServeWorkload(w *workload, c *corpus, o options, res *result) error {
	cfg := w.serve
	imgs := imageSequence(o.seed, int(o.measure.Seconds()*maxServeRate), c)
	keys := o.setups*len(c.samples) + len(imgs) + int(cfg.reportRate*cfg.report.Seconds()) + 1
	for _, r := range cfg.ladder {
		keys += 2 * (int(r*cfg.rung.Seconds()) + 1)
	}
	sk := newSink(c.wants(), keys)
	seq := 0
	var setups, warmRates []float64
	var sys *serveSystem
	for i := 0; i < o.setups; i++ {
		s, setup, rate, err := serveSetup(w, c, sk, nil, &seq)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		warmRates = append(warmRates, rate)
		if i < o.setups-1 {
			s.close()
			if err := s.firstErr(); err != nil {
				return err
			}
		} else {
			sys = s
		}
	}
	ph, err := sys.closedLoop(sk, cfg, o.measure, imgs, &seq)
	if err != nil {
		sys.close()
		return err
	}
	// The open-loop probe: the reporting rate, then the ladder.
	rep := sys.runRung(sk, cfg, cfg.reportRate, cfg.report, schedule(o.seed, 0, cfg.reportRate, cfg.report, c), &seq)
	rungs := []rungResult{rep}
	maxRate := 0.0
	held := climb(cfg, func(i int) bool {
		r := sys.runRung(sk, cfg, cfg.ladder[i], cfg.rung, schedule(o.seed, i+1, cfg.ladder[i], cfg.rung, c), &seq)
		rungs = append(rungs, r)
		return r.Held
	})
	if held >= 0 {
		maxRate = cfg.ladder[held]
	}
	sys.close()
	if err := sys.firstErr(); err != nil {
		return err
	}
	thr := median(ph.rate)
	lat := durationsMS(ph.lat)
	res.set("throughput_img_s", thr)
	// No capture epoch: see runEpochWorkload.
	res.set("capture_img_s", thr)
	res.set("latency_p50_ms", windowedQuantile(lat, 0.50, latencyWindow))
	res.set("latency_p99_ms", windowedQuantile(lat, 0.99, latencyWindow))
	res.set("max_rate_rps", thr)
	res.set("cpu_ms_per_img", ms(ph.cpu)/float64(ph.answered))
	res.set("setup_s", median(setups))
	res.report["closed_loop"] = map[string]any{
		"clients": cfg.clients, "offered": ph.offered, "shed": ph.shed, "answered": ph.answered,
		"latency": latencyReport(lat),
	}
	res.report["open_loop"] = map[string]any{
		"rungs": rungs, "max_rate_rps": maxRate, "loadgen_lag_p99_ms": rep.LagP99,
	}
	res.report["setup_samples_s"] = setups
	res.report["first_pass_img_s"] = warmRates
	bookServe(res, sk, o.setups*len(c.samples)+ph.offered, ph.shed, rungs[:1], rungs[1:])
	return nil
}

// bookServe books attempted and failed requests. The closed-loop
// requests (warm passes and closed loops: closed offered, closedShed
// shed) and the counted rungs are the workload; probe rungs (the ladder)
// only measure capacity, so their sheds are not failures, but a wrong
// answer anywhere fails the run.
func bookServe(res *result, sk *sink, closed, closedShed int, counted, probes []rungResult) {
	mism := sk.mismatches()
	rungMism := 0
	for _, r := range append(append([]rungResult(nil), counted...), probes...) {
		rungMism += r.Mismatched
	}
	res.attempted += closed
	res.failed += mism - rungMism + closedShed
	unanswered := 0
	for _, r := range counted {
		res.attempted += r.Offered
		res.failed += r.Shed + max(r.Unanswered, 0) + r.Mismatched
		unanswered += max(r.Unanswered, 0)
	}
	res.report["mismatched"] = mism
	res.report["never_answered"] = unanswered
	dup := 0
	for _, n := range sk.keyCounts() {
		if n > 1 {
			dup += int(n) - 1
		}
	}
	if dup > 0 {
		res.correct = false
		res.report["conservation"] = fmt.Sprintf("%d duplicate answers", dup)
	}
	if mism > 0 {
		res.correct = false
	}
}
