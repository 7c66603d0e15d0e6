package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// The span-fill row encoder is checked against the per-pixel painter and
// sampler it replaced, kept here only as a reference oracle, and against
// ClassifyFrame, which shares no code with either.

// paintRowCodesReference paints row y's classification into codes (length
// frame-width) pixel by pixel from the sublist, counting one paint op per
// region pixel, with code precedence R > Sk > St > N.
func paintRowCodesReference(labels region.List, sublist []int, codes []bitpack.Code, y, frameIndex int, stats *EncoderStats) {
	for i := range codes {
		codes[i] = bitpack.CodeN
	}
	for _, li := range sublist {
		l := labels[li]
		x1 := l.X + l.W
		switch {
		case !l.ActiveAt(frameIndex):
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if codes[x] < bitpack.CodeSk {
					codes[x] = bitpack.CodeSk
				}
			}
		case l.Stride > 1 && (y-l.Y)%l.Stride != 0:
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if codes[x] < bitpack.CodeSt {
					codes[x] = bitpack.CodeSt
				}
			}
		default:
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if l.Stride <= 1 || (x-l.X)%l.Stride == 0 {
					codes[x] = bitpack.CodeR
				} else if codes[x] < bitpack.CodeSt {
					codes[x] = bitpack.CodeSt
				}
			}
		}
	}
}

// encodeReference encodes fr with y-sorted labels through the per-pixel
// painter and a Mask.Set sampler, returning the frame and its work counts.
func encodeReference(labels region.List, fr *frame.Frame, frameIndex int) (*EncodedFrame, EncoderStats) {
	w, h, bpp := fr.W, fr.H, fr.BytesPerPixel()
	ef := (*FramePool)(nil).Get(w, h, bpp)
	ef.FrameIndex = frameIndex
	ef.RowOffsets = append(ef.RowOffsets, 0)
	codes := make([]bitpack.Code, w)
	var sublist []int
	stats := EncoderStats{FramesEncoded: 1}
	for y := 0; y < h; y++ {
		stats.RowsProcessed++
		stats.PixelsIn += w
		sublist = sublist[:0]
		for i, l := range labels {
			stats.RoISelectorCompares++
			if l.Y > y {
				break
			}
			if l.RowInYRange(y) {
				sublist = append(sublist, i)
			}
		}
		count := 0
		if len(sublist) == 0 {
			stats.RowsWithNoRegions++
		} else {
			paintRowCodesReference(labels, sublist, codes, y, frameIndex, &stats)
			line := fr.Pix[y*w*bpp : (y+1)*w*bpp]
			for x, c := range codes {
				if c != bitpack.CodeN {
					ef.Mask.Set(y*w+x, c)
				}
				if c == bitpack.CodeR {
					ef.Pix = append(ef.Pix, line[x*bpp:(x+1)*bpp]...)
					count++
				}
			}
		}
		stats.PixelsOut += count
		ef.RowOffsets = append(ef.RowOffsets, ef.RowOffsets[y]+uint32(count))
	}
	return ef, stats
}

// fuzzLabels draws a label list that stresses the span fill: strides 1-8,
// skips 1-8 with any phase, regions touching the frame edges, exact
// duplicates at other rhythms, one-pixel slivers and full-frame cover.
func fuzzLabels(rng *rand.Rand, w, h int) region.List {
	var ls region.List
	rhythm := func(l region.Label) region.Label {
		l.Stride, l.Skip = 1+rng.Intn(8), 1+rng.Intn(8)
		l.Phase = rng.Intn(l.Skip)
		return l
	}
	for i, n := 0, rng.Intn(24); i < n; i++ {
		var l region.Label
		switch rng.Intn(6) {
		case 0: // full frame
			l = region.Label{W: w, H: h}
		case 1: // touching the right and bottom edges
			l.W, l.H = 1+rng.Intn(w), 1+rng.Intn(h)
			l.X, l.Y = w-l.W, h-l.H
		case 2: // touching the left and top edges
			l.W, l.H = 1+rng.Intn(w), 1+rng.Intn(h)
		case 3: // one-pixel sliver
			l = region.Label{X: rng.Intn(w), Y: rng.Intn(h), W: 1, H: 1 + rng.Intn(h)}
			if rng.Intn(2) == 0 {
				l.W, l.H = 1+rng.Intn(w), 1
			}
		case 4: // exact copy of an earlier region at another rhythm
			if len(ls) > 0 {
				l = ls[rng.Intn(len(ls))]
				break
			}
			fallthrough
		default:
			l = region.Label{X: rng.Intn(w), Y: rng.Intn(h), W: 1 + rng.Intn(w), H: 1 + rng.Intn(h)}
		}
		if clipped, ok := region.Clip(rhythm(l), w, h); ok {
			ls = append(ls, clipped)
		}
	}
	return ls
}

// checkEncodeRows encodes a few frames of a w×h case drawn from seed with
// the sequential and parallel encoders, requiring both to match the
// reference encoder byte for byte and counter for counter, and the mask and
// RoI selector count to match ClassifyFrame.
func checkEncodeRows(t *testing.T, seed int64, w, h int, format frame.Format, firstFrame int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := fuzzLabels(rng, w, h)
	sorted := labels.Clone().SortByY()
	tag := fmt.Sprintf("seed %d %dx%d %v labels=%v", seed, w, h, format, labels)

	seq := NewEncoder(w, h, format)
	pars := []*ParallelEncoder{NewParallelEncoder(w, h, format, 2), NewParallelEncoder(w, h, format, 3)}
	if err := seq.SetRegionLabels(labels); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for _, p := range pars {
		if err := p.SetRegionLabels(labels); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	var want EncoderStats
	for fi := firstFrame; fi < firstFrame+3; fi++ {
		fr := genFrame(rng, w, h, format)
		ref, refStats := encodeReference(sorted, fr, fi)
		want = addStats(want, refStats)

		got, err := seq.EncodeFrame(fr, fi)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		encodedEqual(t, fmt.Sprintf("%s frame %d sequential", tag, fi), ref, got)
		mask, cs := ClassifyFrame(w, h, fi, sorted, DesignHybrid)
		if !got.Mask.Equal(mask) {
			t.Fatalf("%s frame %d: mask differs from ClassifyFrame", tag, fi)
		}
		if cs.RowSelectorCompares != refStats.RoISelectorCompares {
			t.Fatalf("%s frame %d: %d RoI compares, ClassifyFrame %d", tag, fi, refStats.RoISelectorCompares, cs.RowSelectorCompares)
		}
		for _, p := range pars {
			pf, err := p.EncodeFrame(fr, fi)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			encodedEqual(t, fmt.Sprintf("%s frame %d parallel(%d)", tag, fi, p.Parallelism()), ref, pf)
		}
	}
	if got := seq.Stats(); got != want {
		t.Fatalf("%s: sequential stats %+v, reference %+v", tag, got, want)
	}
	for _, p := range pars {
		if got := p.Stats(); got != want {
			t.Fatalf("%s: parallel(%d) stats %+v, reference %+v", tag, p.Parallelism(), got, want)
		}
	}
}

func addStats(a, b EncoderStats) EncoderStats {
	a.FramesEncoded += b.FramesEncoded
	a.RowsProcessed += b.RowsProcessed
	a.PixelsIn += b.PixelsIn
	a.PixelsOut += b.PixelsOut
	a.RoISelectorCompares += b.RoISelectorCompares
	a.RegionPaintOps += b.RegionPaintOps
	a.RowsWithNoRegions += b.RowsWithNoRegions
	return a
}

// FuzzEncodeRows checks the span-fill encoders against the per-pixel
// reference over fuzzer-chosen label sets and geometries; widths are mostly
// not multiples of four, so mask rows start mid-byte.
func FuzzEncodeRows(f *testing.F) {
	f.Add(int64(1), uint8(13), uint8(9), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(3), false)
	f.Add(int64(3), uint8(63), uint8(17), uint8(5), true)
	f.Add(int64(4), uint8(7), uint8(40), uint8(1), false)
	f.Add(int64(5), uint8(100), uint8(3), uint8(7), true)
	f.Add(int64(6), uint8(32), uint8(32), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, wb, hb, frameIndex uint8, rgb bool) {
		format := frame.Gray8
		if rgb {
			format = frame.RGB24
		}
		checkEncodeRows(t, seed, 1+int(wb)%130, 1+int(hb)%70, format, int(frameIndex))
	})
}

// TestEncodeRowsMatchesReference runs the fuzz check over a fixed seed
// sweep, so every tier-1 run covers a few hundred label sets.
func TestEncodeRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a11))
	for i := 0; i < 300; i++ {
		format := frame.Gray8
		if i%3 == 0 {
			format = frame.RGB24
		}
		checkEncodeRows(t, rng.Int63(), 1+rng.Intn(130), 1+rng.Intn(70), format, rng.Intn(8))
	}
}

// TestEncodeRowsMatchesReference1080p covers paper geometry: ~1000
// V-SLAM-like regions over a 1080p frame, several frames so skips cycle.
func TestEncodeRowsMatchesReference1080p(t *testing.T) {
	const w, h = 1920, 1080
	rng := rand.New(rand.NewSource(1080))
	var labels region.List
	labels = append(labels, region.Label{W: w, H: h, Stride: 4, Skip: 2})
	for i := 0; i < 1000; i++ {
		l := region.Label{X: rng.Intn(w), Y: rng.Intn(h), W: 8 + rng.Intn(40), H: 8 + rng.Intn(40),
			Stride: 1 + rng.Intn(2), Skip: 1 + rng.Intn(3)}
		l.Phase = rng.Intn(l.Skip)
		if c, ok := region.Clip(l, w, h); ok {
			labels = append(labels, c)
		}
	}
	sorted := labels.Clone().SortByY()
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	fr := genFrame(rng, w, h, frame.Gray8)
	for fi := 0; fi < 3; fi++ {
		before := enc.Stats()
		got, err := enc.EncodeFrame(fr, fi)
		if err != nil {
			t.Fatal(err)
		}
		ref, refStats := encodeReference(sorted, fr, fi)
		encodedEqual(t, fmt.Sprintf("1080p frame %d", fi), ref, got)
		after := enc.Stats()
		if d := after.RegionPaintOps - before.RegionPaintOps; d != refStats.RegionPaintOps {
			t.Fatalf("frame %d: %d paint ops, reference %d", fi, d, refStats.RegionPaintOps)
		}
		if d := after.PixelsOut - before.PixelsOut; d != refStats.PixelsOut {
			t.Fatalf("frame %d: %d pixels out, reference %d", fi, d, refStats.PixelsOut)
		}
	}
}
