// Package isp simulates the image signal processor stages of the paper's
// video pipeline (Table 2: "Demosaic and Gamma correction, 2 Pixels Per
// Clock"): Bayer demosaicing, gamma correction, and color-space conversion,
// with line-buffer-based streaming operation and throughput accounting.
//
// The rhythmic pixel encoder integrates at the ISP output (§4.1.2), so the
// ISP's only contract with the rest of the system is that it emits
// frame-ordered raster-scan pixels — which this simulation preserves.
package isp

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// Gamma is a lookup-table gamma correction stage.
type Gamma struct {
	lut [256]uint8
}

// NewGamma builds a gamma stage with the given exponent (2.2 is the typical
// display-referred encode; values <= 0 panic).
func NewGamma(gamma float64) *Gamma {
	if gamma <= 0 {
		panic("isp: non-positive gamma")
	}
	g := &Gamma{}
	for i := 0; i < 256; i++ {
		g.lut[i] = uint8(math.Pow(float64(i)/255, 1/gamma)*255 + 0.5)
	}
	return g
}

// Apply runs the LUT over a frame in place.
func (g *Gamma) Apply(fr *frame.Frame) {
	for i, v := range fr.Pix {
		fr.Pix[i] = g.lut[v]
	}
}

// Demosaic converts a BayerRGGB mosaic to RGB24 with bilinear interpolation
// using a 3-line neighborhood — the classic line-buffered hardware approach.
// Out-of-frame neighbours replicate the nearest edge pixel.
func Demosaic(bayer *frame.Frame) (*frame.Frame, error) {
	if bayer.Format != frame.BayerRGGB {
		return nil, fmt.Errorf("isp: demosaic input is %v, want BayerRGGB", bayer.Format)
	}
	return demosaic(bayer), nil
}

func demosaic(bayer *frame.Frame) *frame.Frame {
	w := bayer.W
	out := frame.New(w, bayer.H, frame.RGB24)
	for y := 0; y < bayer.H; y++ {
		demosaicRow(out.Pix[y*w*3:(y+1)*w*3], bayer, y)
	}
	return out
}

// demosaicRow interpolates mosaic row y into the RGB24 row dst from a
// 3-line window whose rows above and below clamp to the frame. Even rows
// alternate R,G sites and odd rows G,B; a row's own chroma is R on even rows
// and B on odd rows, so the two row parities differ only in which output
// channel receives it. The two border columns clamp their horizontal
// neighbours; the interior loop needs no clamps.
func demosaicRow(dst []byte, bayer *frame.Frame, y int) {
	w, h := bayer.W, bayer.H
	up, dn := max(y-1, 0), min(y+1, h-1)
	u, c, n := bayer.Pix[up*w:(up+1)*w], bayer.Pix[y*w:(y+1)*w], bayer.Pix[dn*w:(dn+1)*w]
	yParity := y & 1
	ownCh, otherCh := 0, 2
	if yParity == 1 {
		ownCh, otherCh = 2, 0
	}
	at := func(x, l, r int) {
		own, g, other := demosaicAt(u, c, n, x, l, r, x&1 == yParity)
		p := dst[3*x : 3*x+3]
		p[ownCh], p[1], p[otherCh] = uint8(own), uint8(g), uint8(other)
	}
	last := len(c) - 1
	at(0, 0, min(1, last))
	for x := 1; x < last; x++ {
		at(x, x-1, x+1)
	}
	if last > 0 {
		at(last, last-1, last)
	}
}

// demosaicAt interpolates column x of row c from its neighbour columns l and
// r. At a chroma site the own chroma is sampled, green averages the four
// cross neighbours and the other chroma the four diagonals; at a green site
// the own chroma averages the horizontal pair and the other chroma the
// vertical pair.
func demosaicAt(u, c, n []byte, x, l, r int, chromaSite bool) (own, g, other int) {
	if chromaSite {
		return int(c[x]),
			(int(c[l]) + int(c[r]) + int(u[x]) + int(n[x])) / 4,
			(int(u[l]) + int(u[r]) + int(n[l]) + int(n[r])) / 4
	}
	return (int(c[l]) + int(c[r])) / 2, int(c[x]), (int(u[x]) + int(n[x])) / 2
}

// RGBToYUV444 converts RGB24 to YUV444 with BT.601 full-range coefficients.
func RGBToYUV444(rgb *frame.Frame) (*frame.Frame, error) {
	if rgb.Format != frame.RGB24 {
		return nil, fmt.Errorf("isp: YUV conversion input is %v, want RGB24", rgb.Format)
	}
	out := frame.New(rgb.W, rgb.H, frame.YUV444)
	for i := 0; i < len(rgb.Pix); i += 3 {
		r, g, b := int(rgb.Pix[i]), int(rgb.Pix[i+1]), int(rgb.Pix[i+2])
		y := (299*r + 587*g + 114*b + 500) / 1000
		u := (-169*r - 331*g + 500*b + 500) / 1000 // (500 rounds toward zero-ish)
		v := (500*r - 419*g - 81*b + 500) / 1000
		out.Pix[i] = uint8(clampInt(y, 0, 255))
		out.Pix[i+1] = uint8(clampInt(u+128, 0, 255))
		out.Pix[i+2] = uint8(clampInt(v+128, 0, 255))
	}
	return out, nil
}

// YUVToGray extracts the luma plane of a YUV444 frame.
func YUVToGray(yuv *frame.Frame) (*frame.Frame, error) {
	if yuv.Format != frame.YUV444 {
		return nil, fmt.Errorf("isp: luma extraction input is %v, want YUV444", yuv.Format)
	}
	out := frame.New(yuv.W, yuv.H, frame.Gray8)
	for i := 0; i < yuv.W*yuv.H; i++ {
		out.Pix[i] = yuv.Pix[i*3]
	}
	return out, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Pipeline chains the ISP stages the paper's platform uses and accounts for
// processing throughput at the configured pixels-per-clock rate. A Pipeline
// is not safe for concurrent use.
type Pipeline struct {
	// AE, when non-nil, runs mean-luma auto-exposure on the demosaiced
	// frame (before gamma, as hardware AE operates on linear data).
	AE *AutoExposure
	// AWB enables gray-world white balance after demosaicing.
	AWB bool
	// GammaStage is applied after demosaicing; nil disables it.
	GammaStage *Gamma
	// OutputGray selects luma-only output (what the vision workloads
	// consume), taken straight from the gamma-corrected RGB; otherwise the
	// pipeline emits YUV444. Without AE and AWB, gray output streams row
	// by row and never holds a whole RGB frame.
	OutputGray bool
	// PixelsPerClock and ClockHz model stage throughput.
	PixelsPerClock int
	ClockHz        float64

	pixelsProcessed int64
	line            []byte // RGB24 line buffer of the streaming gray path
}

// NewPipeline returns the default pipeline: demosaic, gamma 2.2, gray
// output, 2 px/clock at 300 MHz. AE/AWB are off by default so frames stay
// deterministic functions of the scene; enable them for closed-loop
// illumination experiments.
func NewPipeline() *Pipeline {
	return &Pipeline{GammaStage: NewGamma(2.2), OutputGray: true, PixelsPerClock: 2, ClockHz: 300e6}
}

// Process runs a Bayer frame through the pipeline.
func (p *Pipeline) Process(bayer *frame.Frame) (*frame.Frame, error) {
	if bayer.Format != frame.BayerRGGB {
		return nil, fmt.Errorf("isp: demosaic input is %v, want BayerRGGB", bayer.Format)
	}
	w, h := bayer.W, bayer.H
	p.pixelsProcessed += int64(w * h)
	lut := &identityLUT
	if p.GammaStage != nil {
		lut = &p.GammaStage.lut
	}
	if p.OutputGray && !p.AWB && p.AE == nil {
		// No stage needs whole-frame statistics: demosaic one row at a
		// time into a line buffer and take its luma straight away.
		if len(p.line) != 3*w {
			p.line = make([]byte, 3*w)
		}
		out := frame.New(w, h, frame.Gray8)
		for y := 0; y < h; y++ {
			demosaicRow(p.line, bayer, y)
			gammaLuma(out.Pix[y*w:(y+1)*w], p.line, lut)
		}
		return out, nil
	}
	rgb := demosaic(bayer)
	if p.AWB {
		if err := GrayWorldAWB(rgb); err != nil {
			return nil, err
		}
	}
	if p.AE != nil {
		p.AE.Process(rgb)
	}
	if p.OutputGray {
		out := frame.New(w, h, frame.Gray8)
		gammaLuma(out.Pix, rgb.Pix, lut)
		return out, nil
	}
	if p.GammaStage != nil {
		p.GammaStage.Apply(rgb)
	}
	return RGBToYUV444(rgb)
}

// gammaLuma writes into dst the BT.601 luma of the gamma-corrected RGB24
// pixels src: the Y channel RGBToYUV444 would produce after the gamma
// stage, without building the YUV444 frame.
func gammaLuma(dst, src []byte, lut *[256]uint8) {
	for i := range dst {
		p := src[3*i : 3*i+3]
		r, g, b := int(lut[p[0]]), int(lut[p[1]]), int(lut[p[2]])
		// Never outside [0, 255]: the weights sum to 1000.
		dst[i] = uint8((299*r + 587*g + 114*b + 500) / 1000)
	}
}

// identityLUT stands in for a disabled gamma stage.
var identityLUT = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(i)
	}
	return t
}()

// PixelsProcessed returns the cumulative pixel count.
func (p *Pipeline) PixelsProcessed() int64 { return p.pixelsProcessed }

// FrameTime returns the streaming time for one w x h frame in seconds at
// the pipeline's pixel rate.
func (p *Pipeline) FrameTime(w, h int) float64 {
	return float64(w) * float64(h) / (float64(p.PixelsPerClock) * p.ClockHz)
}

// MeetsRate reports whether the pipeline sustains w x h at fps.
func (p *Pipeline) MeetsRate(w, h int, fps float64) bool {
	return p.FrameTime(w, h) <= 1/fps
}
