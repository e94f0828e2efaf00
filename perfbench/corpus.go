package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dlbooster/internal/dataset"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// classes sizes the engine's classifier head. The engine's label is its
// 64-bit forward-pass proxy over the delivered bytes modulo this, so a
// 31-bit head makes every prediction a digest of the image the engine
// actually received.
const classes = math.MaxInt32

// imageKind is one family of synthetic inputs.
type imageKind struct {
	name    string
	count   int // distinct images of this kind
	w, h    int
	restart int // DRI restart interval in MCUs; 0 = no restart markers
}

// sample is one distinct encoded input plus the label a correct
// pipeline must predict for it.
type sample struct {
	data []byte
	kind int
	want int
}

// corpus is a workload's encoded inputs, made once per run from the
// seed before anything is timed.
type corpus struct {
	samples []sample
	digest  string // SHA-256 over every encoded image, in order
	bytes   int
	synth   time.Duration
}

// refDecoder is the reference decode of one input at the workload's
// output geometry, through the public jpeg/imageproc APIs.
type refDecoder func(data []byte, w, h int) ([]byte, error)

// refStaged decodes the way the FPGA model's stages do: parse, entropy
// decode, reconstruct at the smallest covering iDCT scale, bilinear
// resize of the residual ratio.
func refStaged(data []byte, w, h int) ([]byte, error) {
	hdr, err := jpeg.Parse(data)
	if err != nil {
		return nil, err
	}
	co, err := hdr.EntropyDecode()
	if err != nil {
		return nil, err
	}
	img, _, err := co.ReconstructScaled(w, h)
	if err != nil {
		return nil, err
	}
	dst := pix.New(w, h, 3)
	if err := imageproc.ResizeInto(img, dst, imageproc.Bilinear); err != nil {
		return nil, err
	}
	return dst.Pix, nil
}

// refFused decodes the way the CPU backend's workers do: the one-call
// decode-to-scale path writing straight into the output slot.
func refFused(data []byte, w, h int) ([]byte, error) {
	dst := pix.New(w, h, 3)
	if _, err := jpeg.DecodeScaledInto(data, dst, nil); err != nil {
		return nil, err
	}
	return dst.Pix, nil
}

// labelOf is the label the engine predicts for an image's bytes: the
// engine's forward-pass proxy (an FNV-1a-style reduction, with the
// engine's own offset constant) modulo the head size.
func labelOf(img []byte) int {
	acc := uint64(1469598103934665603)
	for _, b := range img {
		acc ^= uint64(b)
		acc *= 1099511628211
	}
	return int(acc % uint64(classes))
}

// buildCorpus synthesises kinds[i].count images of each kind from the
// seed (dataset.ILSVRCLike pixels, baseline 4:2:0 JPEG at quality 88),
// encodes each once, and reference-decodes each at outW×outH. Work is
// spread over every CPU; none of it is part of any timed phase.
func buildCorpus(seed int64, kinds []imageKind, outW, outH int, ref refDecoder) (*corpus, error) {
	start := time.Now()
	type job struct{ idx, kind, i int }
	var jobs []job
	for k, kd := range kinds {
		for i := 0; i < kd.count; i++ {
			jobs = append(jobs, job{len(jobs), k, i})
		}
	}
	samples := make([]sample, len(jobs))
	errs := make([]error, len(jobs))
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				samples[j.idx], errs[j.idx] = makeSample(seed, kinds[j.kind], j.kind, j.i, outW, outH, ref)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	c := &corpus{samples: samples}
	h := sha256.New()
	var n [8]byte
	for i, s := range samples {
		if errs[i] != nil {
			return nil, errs[i]
		}
		binary.BigEndian.PutUint64(n[:], uint64(len(s.data)))
		h.Write(n[:])
		h.Write(s.data)
		c.bytes += len(s.data)
	}
	c.digest = hex.EncodeToString(h.Sum(nil))
	c.synth = time.Since(start)
	return c, nil
}

func makeSample(seed int64, kd imageKind, kind, i, outW, outH int, ref refDecoder) (sample, error) {
	spec := dataset.ILSVRCLike(kd.count)
	spec.W, spec.H = kd.w, kd.h
	// Each kind draws from its own stream of the workload seed.
	spec.Seed = seed*1000003 + int64(kind)
	data, err := jpeg.Encode(spec.Image(i), jpeg.EncodeOptions{
		Quality: spec.Quality, Subsample420: true, RestartInterval: kd.restart,
	})
	if err != nil {
		return sample{}, fmt.Errorf("encoding %s/%d: %w", kd.name, i, err)
	}
	out, err := ref(data, outW, outH)
	if err != nil {
		return sample{}, fmt.Errorf("reference decode of %s/%d: %w", kd.name, i, err)
	}
	return sample{data: data, kind: kind, want: labelOf(out)}, nil
}
