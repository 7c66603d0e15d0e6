package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// The Decoder is checked against an oracle decode that runs the per-pixel
// reference translator (pmmu_test.go) row by row from the frame top, with a
// fresh sampler and no scratch reuse, band split or warm-up.

// decodeReference decodes the whole newest frame of hist (newest first) and
// returns it with each row's statistics.
func decodeReference(tb testing.TB, hist []*EncodedFrame, format frame.Format) (*frame.Frame, []DecoderStats) {
	tb.Helper()
	f := hist[0]
	bpp := f.BytesPerPixel
	p := NewPMMU(hist, 0)
	fifo := &fifoSampler{bpp: bpp, resample: make([]byte, bpp), lineBuf: make([]byte, f.W*bpp)}
	out := frame.New(f.W, f.H, format)
	rows := make([]DecoderStats, f.H)
	for y := range rows {
		before := p.Stats().MetadataBitsRead
		subs, err := translateRowReference(p, y, 0, f.W)
		if err != nil {
			tb.Fatal(err)
		}
		rows[y].SubRequests = len(subs)
		rows[y].MetadataBitsRead = p.Stats().MetadataBitsRead - before
		row := out.Pix[y*out.Stride() : (y+1)*out.Stride()]
		fifo.beginRow()
		if err := fifo.serviceRow(subs, hist, 0, row, &rows[y]); err != nil {
			tb.Fatal(err)
		}
		fifo.commitRow(row)
	}
	return out, rows
}

// sumRows adds up the reference statistics of rows [y0, y1).
func sumRows(rows []DecoderStats, y0, y1 int) DecoderStats {
	var s DecoderStats
	for _, r := range rows[y0:y1] {
		s.add(r)
	}
	return s
}

// checkDecodeCase decodes the newest frame of hist — a full frame and the
// window (wx, wy, ww, wh) sequentially, and a full frame at parallelism par —
// and requires pixels and statistics to match the oracle decode exactly.
func checkDecodeCase(t *testing.T, tag string, hist []*EncodedFrame, wx, wy, ww, wh, par int) {
	t.Helper()
	f := hist[0]
	want, rows := decodeReference(t, hist, frame.Gray8)
	for _, n := range []int{1, par} {
		dec := NewDecoder(f.W, f.H, frame.Gray8, WithHistoryDepth(len(hist)), WithParallelism(n))
		for i := len(hist) - 1; i >= 0; i-- {
			if err := dec.Push(hist[i]); err != nil {
				t.Fatal(err)
			}
		}
		full, err := dec.DecodeFrame()
		if err != nil {
			t.Fatalf("%s parallelism %d: %v", tag, n, err)
		}
		if !full.Equal(want) {
			t.Fatalf("%s parallelism %d: full decode differs from the oracle", tag, n)
		}
		if got, ws := dec.Stats(), sumRows(rows, 0, f.H); got != ws {
			t.Fatalf("%s parallelism %d: full-decode stats %+v, oracle %+v", tag, n, got, ws)
		}
		dec.ResetStats()
		win, err := dec.DecodeWindow(wx, wy, ww, wh)
		if err != nil {
			t.Fatalf("%s parallelism %d: %v", tag, n, err)
		}
		if !win.Equal(want.Crop(wx, wy, ww, wh)) {
			t.Fatalf("%s parallelism %d: window (%d,%d %dx%d) differs from the oracle crop", tag, n, wx, wy, ww, wh)
		}
		if got, ws := dec.Stats(), sumRows(rows, wy, wy+wh); got != ws {
			t.Fatalf("%s parallelism %d: window stats %+v, oracle %+v", tag, n, got, ws)
		}
	}
}

// TestDecodeWindowLargeStride pins window and row-band decodes for vertical
// strides above the old fixed eight-row warm-up: a window or band starting
// more than eight rows below its nearest lattice row used to resample a
// black line buffer instead of the row above.
func TestDecodeWindowLargeStride(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, stride := range []int{12, 16} {
		for _, skip := range []int{1, 2} {
			const w = 64
			for _, h := range []int{44, 64, 75} {
				labels := region.List{{W: w, H: h, Stride: stride, Skip: skip}}
				hist := encodeHistory(t, rng, []region.List{labels, labels}[:skip], w, h, 0)
				for _, par := range []int{2, 4} {
					for y0 := 0; y0+8 <= h; y0++ {
						tag := fmt.Sprintf("stride %d skip %d %dx%d", stride, skip, w, h)
						checkDecodeCase(t, tag, hist, 8, y0, 16, 8, par)
					}
				}
			}
		}
	}
}

// hostileLabels draws fuzzLabels and gives about half of them a vertical
// stride anywhere up to past the frame size.
func hostileLabels(rng *rand.Rand, w, h int) region.List {
	ls := fuzzLabels(rng, w, h)
	for i := range ls {
		if rng.Intn(2) == 0 {
			ls[i].Stride = 1 + rng.Intn(w+h+2)
		}
	}
	return ls
}

// FuzzDecodeWindow decodes fuzzer-chosen labels (changing between frames),
// geometries, history depths and windows, requiring the sequential and row-band decoders to match the
// oracle decode pixel for pixel and counter for counter, and every window to
// equal the crop of the full decode.
func FuzzDecodeWindow(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(64), uint8(4), uint8(4), uint8(8), uint8(30), uint8(16), uint8(8), uint8(2))
	f.Add(int64(2), uint8(13), uint8(9), uint8(0), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), uint8(4))
	f.Add(int64(3), uint8(63), uint8(70), uint8(5), uint8(7), uint8(3), uint8(41), uint8(9), uint8(20), uint8(3))
	f.Add(int64(4), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(2))
	f.Add(int64(5), uint8(130), uint8(40), uint8(2), uint8(3), uint8(100), uint8(17), uint8(30), uint8(23), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, wb, hb, depthB, framesB, wxB, wyB, wwB, whB, parB uint8) {
		w, h := 1+int(wb)%140, 1+int(hb)%80
		depth := 1 + int(depthB)%6
		nframes := 1 + int(framesB)%8
		rng := rand.New(rand.NewSource(seed))
		labels := driftingLabels(rng, nframes, func() region.List { return hostileLabels(rng, w, h) })
		hist := encodeHistory(t, rng, labels, w, h, rng.Intn(8))
		if len(hist) > depth {
			hist = hist[:depth] // the decoder's ring keeps the newest depth frames
		}
		wx, wy := int(wxB)%w, int(wyB)%h
		ww, wh := 1+int(wwB)%(w-wx), 1+int(whB)%(h-wy)
		tag := fmt.Sprintf("seed %d %dx%d depth %d labels %v", seed, w, h, depth, labels)
		checkDecodeCase(t, tag, hist, wx, wy, ww, wh, 2+int(parB)%3)
	})
}

// allocSink keeps measured allocations observable to the compiler.
var allocSink *frame.Frame

// TestAllocsDecodeSteadyState pins sequential DecodeFrame and DecodeWindow
// to their output frame's own allocations once a first decode has grown the
// decoder's scratch, over a depth-4 history with Sk pixels.
func TestAllocsDecodeSteadyState(t *testing.T) {
	const w, h = 96, 64
	labels := region.List{
		{W: w, H: h, Stride: 3, Skip: 2},
		{X: 10, Y: 5, W: 40, H: 30, Stride: 1, Skip: 3, Phase: 1},
		{X: 50, Y: 20, W: 33, H: 40, Stride: 2, Skip: 1},
	}
	sets := []region.List{labels, labels, labels, labels}
	hist := encodeHistory(t, rand.New(rand.NewSource(4)), sets[:DefaultHistoryDepth], w, h, 0)
	dec := NewDecoder(w, h, frame.Gray8)
	for i := len(hist) - 1; i >= 0; i-- {
		if err := dec.Push(hist[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		ww, wh int
		decode func() (*frame.Frame, error)
	}{
		{"DecodeFrame", w, h, dec.DecodeFrame},
		{"DecodeWindow", 40, 30, func() (*frame.Frame, error) { return dec.DecodeWindow(17, 23, 40, 30) }},
	} {
		out := testing.AllocsPerRun(20, func() { allocSink = frame.New(c.ww, c.wh, frame.Gray8) })
		decode := func() {
			var err error
			if allocSink, err = c.decode(); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm-up: grows the band scratch
		if dec.Stats().FetchedSk == 0 {
			t.Fatalf("%s: history produced no Sk fetches", c.name)
		}
		if got := testing.AllocsPerRun(20, decode); got != out {
			t.Errorf("%s allocates %v per call, want %v (the output frame only)", c.name, got, out)
		}
	}
}

// TestDecodeIntoMatchesDecode pins DecodeFrameInto and DecodeWindowInto
// byte-identical to DecodeFrame and DecodeWindow, with identical stats, at
// every parallelism, into an output frame that still holds the previous
// decode's pixels.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	const w, h = 96, 64
	sets := driftingLabels(rand.New(rand.NewSource(9)), 6, func() region.List {
		return region.List{
			{W: w, H: h, Stride: 3, Skip: 2},
			{X: 10, Y: 5, W: 40, H: 30, Stride: 1, Skip: 3, Phase: 1},
			{X: 50, Y: 20, W: 33, H: 40, Stride: 2, Skip: 1},
		}
	})
	hist := encodeHistory(t, rand.New(rand.NewSource(5)), sets, w, h, 0)
	for _, par := range []int{1, 2, 8} {
		ref := NewDecoder(w, h, frame.Gray8, WithParallelism(par))
		into := NewDecoder(w, h, frame.Gray8, WithParallelism(par))
		full, win := frame.New(w, h, frame.Gray8), frame.New(40, 30, frame.Gray8)
		for i := len(hist) - 1; i >= 0; i-- {
			if err := ref.Push(hist[i]); err != nil {
				t.Fatal(err)
			}
			if err := into.Push(hist[i]); err != nil {
				t.Fatal(err)
			}
			want, err := ref.DecodeFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := into.DecodeFrameInto(full); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full.Pix, want.Pix) {
				t.Fatalf("parallelism %d frame %d: DecodeFrameInto differs from DecodeFrame", par, i)
			}
			wantWin, err := ref.DecodeWindow(17, 23, 40, 30)
			if err != nil {
				t.Fatal(err)
			}
			if err := into.DecodeWindowInto(win, 17, 23); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(win.Pix, wantWin.Pix) {
				t.Fatalf("parallelism %d frame %d: DecodeWindowInto differs from DecodeWindow", par, i)
			}
		}
		if ref.Stats() != into.Stats() {
			t.Fatalf("parallelism %d: stats %+v, want %+v", par, into.Stats(), ref.Stats())
		}
		if err := into.DecodeWindowInto(win, 60, 40); err == nil {
			t.Fatal("window past the frame edge accepted")
		}
		if err := into.DecodeFrameInto(frame.New(w, h, frame.RGB24)); err == nil {
			t.Fatal("output frame in the wrong format accepted")
		}
	}
}

// TestAllocsDecodeInto gates the recycled-output decode at zero
// allocations per call on the sequential path.
func TestAllocsDecodeInto(t *testing.T) {
	const w, h = 96, 64
	labels := region.List{{W: w, H: h, Stride: 2, Skip: 2}, {X: 8, Y: 8, W: 50, H: 40, Stride: 1, Skip: 1}}
	hist := encodeHistory(t, rand.New(rand.NewSource(6)), []region.List{labels, labels, labels}, w, h, 0)
	dec := NewDecoder(w, h, frame.Gray8)
	for i := len(hist) - 1; i >= 0; i-- {
		if err := dec.Push(hist[i]); err != nil {
			t.Fatal(err)
		}
	}
	full, win := frame.New(w, h, frame.Gray8), frame.New(40, 30, frame.Gray8)
	for name, decode := range map[string]func() error{
		"DecodeFrameInto":  func() error { return dec.DecodeFrameInto(full) },
		"DecodeWindowInto": func() error { return dec.DecodeWindowInto(win, 17, 23) },
	} {
		if err := decode(); err != nil { // warm-up: grows the band scratch
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
}
