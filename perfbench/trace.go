package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// The traced run measures each layer from outside, by timing calls the
// benchmark makes into (or hands to) the layers' public seams: a timing
// fpga.Mirror, a timing core.DataCollector, a timing core.SpillStore,
// the recycle func given to core.NewDispatcher, the engine's Emit
// callback and fleet.Submit. The program's own tracing
// (core.Config.Metrics) stays off in both runs.

// span is one timed call at a wrapped boundary. Spans of one image share
// ID (its corpus index); batch spans carry the batch sequence number.
// Parent is the Seq of the benchmark phase span the call ran under.
type span struct {
	Seq    int64  `json:"seq"`
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// timer accumulates call count and total time of one seam.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// meanUS is the mean call time in microseconds.
func (t *timer) meanUS() float64 {
	return ratio(float64(t.ns.Load())/1e3, float64(t.n.Load()))
}

func (t *timer) total() time.Duration { return time.Duration(t.ns.Load()) }

// tracer holds the spans and per-seam accumulators of one traced run.
type tracer struct {
	base time.Time

	mu     sync.Mutex
	spans  []span
	seq    int64
	parent atomic.Int64

	// ids maps an inline payload (by its first byte's address) to the
	// corpus index; jobs maps a mirror's intermediate job to the same.
	ids  map[*byte]int64
	jobs sync.Map

	parse, entropy, reconstruct     timer
	scaled, restart                 atomic.Int64
	collectGap                      timer
	recycle                         timer
	spillRead, spillWrite           timer
	spillReadBytes, spillWriteBytes atomic.Int64
	spillRaw, spillStored           atomic.Int64
	submit                          timer
}

func newTracer(c *corpus) *tracer {
	t := &tracer{base: time.Now(), ids: make(map[*byte]int64, len(c.samples))}
	for i, s := range c.samples {
		t.ids[&s.data[0]] = int64(i)
	}
	return t
}

// record appends a span under the current phase.
func (t *tracer) record(name string, id int64, start, end time.Time) {
	t.mu.Lock()
	t.seq++
	t.spans = append(t.spans, span{
		Seq: t.seq, Name: name, ID: id, Parent: t.parent.Load(),
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
	t.mu.Unlock()
}

// phase opens a benchmark phase span (a pass, a replay epoch, a rung);
// spans recorded until the returned func runs are its children.
func (t *tracer) phase(name string) func() {
	start := time.Now()
	t.mu.Lock()
	t.seq++
	seq := t.seq
	t.mu.Unlock()
	prev := t.parent.Swap(seq)
	return func() {
		end := time.Now()
		t.parent.Store(prev)
		t.mu.Lock()
		t.spans = append(t.spans, span{
			Seq: seq, Name: name, ID: -1, Parent: prev,
			Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
		})
		t.mu.Unlock()
	}
}

func (t *tracer) imageID(data []byte) int64 {
	if len(data) == 0 {
		return -1
	}
	if id, ok := t.ids[&data[0]]; ok {
		return id
	}
	return -1
}

// selfTimes returns each span name's total self time in milliseconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.Seq], s.Start, s.End)
		out[s.Name] += float64(self) / 1e6
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of ivs.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	flush := func() {
		a, b := max(cur[0], lo), min(cur[1], hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if iv[0] > cur[1] {
			flush()
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	flush()
	return total
}

// write stores every span as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCount returns the number of spans recorded.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// --- timing fpga.Mirror --------------------------------------------------

// timingMirrorName is the decoder image the traced run selects through
// core.Config.Mirror. It forwards to the stock JPEG mirror and times
// each stage call against the active tracer.
const timingMirrorName = "perfbench-timing"

var activeTracer atomic.Pointer[tracer]

type timingMirror struct{ inner fpga.JPEGMirror }

func (timingMirror) Name() string { return timingMirrorName }

func (m timingMirror) Parse(data []byte) (any, error) {
	t0 := time.Now()
	job, err := m.inner.Parse(data)
	t1 := time.Now()
	if tr := activeTracer.Load(); tr != nil {
		id := tr.imageID(data)
		tr.parse.add(t1.Sub(t0))
		tr.record("jpeg.parse", id, t0, t1)
		if h, ok := job.(*jpeg.Header); ok && err == nil {
			if h.RestartInterval > 0 {
				tr.restart.Add(1)
			}
			tr.jobs.Store(job, id)
		}
	}
	return job, err
}

func (m timingMirror) EntropyDecode(job any) (any, error) {
	t0 := time.Now()
	out, err := m.inner.EntropyDecode(job)
	t1 := time.Now()
	if tr := activeTracer.Load(); tr != nil {
		id := tr.jobID(job)
		tr.entropy.add(t1.Sub(t0))
		tr.record("jpeg.entropy", id, t0, t1)
		if err == nil {
			tr.jobs.Store(out, id)
		}
	}
	return out, err
}

func (m timingMirror) Reconstruct(job any) (*pix.Image, error) {
	img, _, err := m.reconstruct(job, func() (*pix.Image, int, error) {
		img, err := m.inner.Reconstruct(job)
		return img, 8, err
	})
	return img, err
}

func (m timingMirror) ReconstructScaled(job any, outW, outH int) (*pix.Image, int, error) {
	return m.reconstruct(job, func() (*pix.Image, int, error) {
		return m.inner.ReconstructScaled(job, outW, outH)
	})
}

func (m timingMirror) reconstruct(job any, run func() (*pix.Image, int, error)) (*pix.Image, int, error) {
	t0 := time.Now()
	img, scale, err := run()
	t1 := time.Now()
	if tr := activeTracer.Load(); tr != nil {
		id := tr.jobID(job)
		tr.jobs.Delete(job)
		tr.reconstruct.add(t1.Sub(t0))
		if err == nil && scale < 8 {
			tr.scaled.Add(1)
		}
		tr.record("jpeg.reconstruct", id, t0, t1)
	}
	return img, scale, err
}

func (t *tracer) jobID(job any) int64 {
	v, ok := t.jobs.LoadAndDelete(job)
	if !ok {
		return -1
	}
	return v.(int64)
}

func init() { fpga.RegisterMirror(timingMirror{}) }

// --- timing core.DataCollector --------------------------------------------

// intake hands a pass's items to the pipeline, stamping each with the
// moment the pipeline took it (Meta.ReceivedAt), so the engine's
// prediction latency is intake-to-prediction. With a tracer it also
// times each pull and the reader's cycle between pulls.
type intake struct {
	items []core.Item
	pos   int
	tr    *tracer
	last  time.Time
}

func (c *intake) Next() (core.Item, bool) {
	if c.pos >= len(c.items) {
		return core.Item{}, false
	}
	it := c.items[c.pos]
	c.pos++
	now := time.Now()
	it.Meta.ReceivedAt = now
	if c.tr != nil {
		if !c.last.IsZero() {
			c.tr.collectGap.add(now.Sub(c.last))
		}
		end := time.Now()
		c.tr.record("core.collect", int64(it.Meta.ClientID), now, end)
		c.last = end
	}
	return it, true
}

// --- timing core.SpillStore ---------------------------------------------

type timingSpill struct {
	inner core.SpillStore
	tr    *tracer
}

func (s timingSpill) WriteObject(name string, data []byte) error {
	t0 := time.Now()
	err := s.inner.WriteObject(name, data)
	t1 := time.Now()
	s.tr.spillWrite.add(t1.Sub(t0))
	s.tr.spillWriteBytes.Add(int64(len(data)))
	s.tr.noteSpillRecord(data)
	s.tr.record("nvme.write", -1, t0, t1)
	return err
}

func (s timingSpill) Read(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Read(name)
	t1 := time.Now()
	s.tr.spillRead.add(t1.Sub(t0))
	s.tr.spillReadBytes.Add(int64(len(b)))
	s.tr.record("nvme.read", -1, t0, t1)
	return b, err
}

func (s timingSpill) Delete(name string) error { return s.inner.Delete(name) }
