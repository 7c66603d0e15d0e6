package isp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// Reference oracles: the original per-pixel demosaic and the
// YUV444-intermediate pipeline, kept only to pin the production paths bit
// for bit.

// demosaicReference is Demosaic addressed through a clamped per-pixel
// accessor and Frame.Pixel.
func demosaicReference(bayer *frame.Frame) *frame.Frame {
	w, h := bayer.W, bayer.H
	out := frame.New(w, h, frame.RGB24)
	at := func(x, y int) int {
		x = min(max(x, 0), w-1)
		y = min(max(y, 0), h-1)
		return int(bayer.Pix[y*w+x])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var r, g, b int
			evenRow, evenCol := y%2 == 0, x%2 == 0
			switch {
			case evenRow && evenCol: // R site
				r = at(x, y)
				g = (at(x-1, y) + at(x+1, y) + at(x, y-1) + at(x, y+1)) / 4
				b = (at(x-1, y-1) + at(x+1, y-1) + at(x-1, y+1) + at(x+1, y+1)) / 4
			case !evenRow && !evenCol: // B site
				b = at(x, y)
				g = (at(x-1, y) + at(x+1, y) + at(x, y-1) + at(x, y+1)) / 4
				r = (at(x-1, y-1) + at(x+1, y-1) + at(x-1, y+1) + at(x+1, y+1)) / 4
			case evenRow: // G site on R row: R horizontal, B vertical
				g = at(x, y)
				r = (at(x-1, y) + at(x+1, y)) / 2
				b = (at(x, y-1) + at(x, y+1)) / 2
			default: // G site on B row: B horizontal, R vertical
				g = at(x, y)
				b = (at(x-1, y) + at(x+1, y)) / 2
				r = (at(x, y-1) + at(x, y+1)) / 2
			}
			p := out.Pixel(x, y)
			p[0], p[1], p[2] = uint8(r), uint8(g), uint8(b)
		}
	}
	return out
}

// processReference is Pipeline.Process with every stage run as a whole
// frame: demosaic, AWB, AE, gamma in place, YUV444, then luma extraction.
func processReference(p *Pipeline, bayer *frame.Frame) (*frame.Frame, error) {
	rgb := demosaicReference(bayer)
	if p.AWB {
		if err := GrayWorldAWB(rgb); err != nil {
			return nil, err
		}
	}
	if p.AE != nil {
		p.AE.Process(rgb)
	}
	if p.GammaStage != nil {
		p.GammaStage.Apply(rgb)
	}
	p.pixelsProcessed += int64(bayer.W * bayer.H)
	yuv, err := RGBToYUV444(rgb)
	if err != nil {
		return nil, err
	}
	if p.OutputGray {
		return YUVToGray(yuv)
	}
	return yuv, nil
}

// randomBayer draws a mosaic with seeded noise, optionally dimmed so AE has
// gain to apply.
func randomBayer(rng *rand.Rand, w, h int, dim bool) *frame.Frame {
	fr := frame.New(w, h, frame.BayerRGGB)
	rng.Read(fr.Pix)
	if dim {
		for i := range fr.Pix {
			fr.Pix[i] /= 4
		}
	}
	return fr
}

func TestDemosaicMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := [][2]int{{1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 5}, {6, 4}, {160, 120}, {1920, 1080}}
	for _, sz := range sizes {
		bayer := randomBayer(rng, sz[0], sz[1], false)
		got, err := Demosaic(bayer)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(demosaicReference(bayer)) {
			t.Fatalf("%dx%d: Demosaic differs from the per-pixel reference", sz[0], sz[1])
		}
	}
}

func TestProcessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sizes := [][2]int{{2, 2}, {6, 4}, {160, 120}, {1920, 1080}}
	variants := []struct {
		name     string
		gray     bool
		gamma    bool
		ae, awb  bool
		fullSize bool // also run at 1920x1080
	}{
		{"gray", true, true, false, false, true},
		{"yuv", false, true, false, false, true},
		{"gray-no-gamma", true, false, false, false, false},
		{"gray-ae", true, true, true, false, false},
		{"gray-awb", true, true, false, true, false},
		{"gray-ae-awb", true, true, true, true, true},
		{"yuv-ae-awb", false, true, true, true, false},
	}
	for _, sz := range sizes {
		for _, v := range variants {
			if sz[0] == 1920 && !v.fullSize {
				continue
			}
			mk := func() *Pipeline {
				p := NewPipeline()
				p.OutputGray, p.AWB = v.gray, v.awb
				if !v.gamma {
					p.GammaStage = nil
				}
				if v.ae {
					p.AE = NewAutoExposure()
				}
				return p
			}
			got, ref := mk(), mk()
			tag := fmt.Sprintf("%dx%d %s", sz[0], sz[1], v.name)
			// Several frames so the AE loop carries gain between them.
			for i := 0; i < 3; i++ {
				bayer := randomBayer(rng, sz[0], sz[1], v.ae)
				out, err := got.Process(bayer)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := processReference(ref, bayer)
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				if !out.Equal(want) {
					t.Fatalf("%s frame %d: Process (%v) differs from the reference (%v)", tag, i, out.Format, want.Format)
				}
			}
			if got.PixelsProcessed() != ref.PixelsProcessed() {
				t.Fatalf("%s: PixelsProcessed %d, reference %d", tag, got.PixelsProcessed(), ref.PixelsProcessed())
			}
			if v.ae && got.AE.Gain() != ref.AE.Gain() {
				t.Fatalf("%s: AE gain %v, reference %v", tag, got.AE.Gain(), ref.AE.Gain())
			}
		}
	}
}

// TestAllocsISPProcess pins gray-output Process to its frames, one header
// and one pixel buffer each: the Gray8 output alone on the streaming path,
// plus the RGB intermediate when AE or AWB need whole-frame statistics. No
// YUV444 intermediate is built on either path.
func TestAllocsISPProcess(t *testing.T) {
	bayer := randomBayer(rand.New(rand.NewSource(23)), 160, 120, false)
	withAE := NewPipeline()
	withAE.AE, withAE.AWB = NewAutoExposure(), true
	for _, c := range []struct {
		name string
		p    *Pipeline
		max  float64
	}{
		{"streaming", NewPipeline(), 2},
		{"ae-awb", withAE, 4},
	} {
		if _, err := c.p.Process(bayer); err != nil { // sizes the line buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.p.Process(bayer); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s gray Process: %.1f allocs/frame, want <= %v", c.name, allocs, c.max)
		}
	}
}
