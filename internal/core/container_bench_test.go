package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// containerShapes are the 1080p label shapes the container benchmarks and
// the parse allocation gate price. The packed codec's cost is per mask run,
// so they span one run per frame to hundreds of thousands:
//
//	full      one full-frame label: the mask is a single R run
//	tiles16   about 1,500 16 px tiles with mixed skip: R and Sk runs
//	grid64s2  64 px regions at stride 2 on a 128 px pitch: every regional
//	          row alternates R/St per pixel, the codec's worst realistic case
var containerShapes = []struct {
	name   string
	labels func(w, h int) region.List
}{
	{"full", func(w, h int) region.List {
		return region.List{{W: w, H: h, Stride: 1, Skip: 1}}
	}},
	{"tiles16", func(w, h int) region.List {
		const tile = 16
		rng := rand.New(rand.NewSource(16))
		var labels region.List
		for _, t := range rng.Perm((w / tile) * (h / tile))[:1500] {
			l := region.Label{X: t % (w / tile) * tile, Y: t / (w / tile) * tile, W: tile, H: tile,
				Stride: 1, Skip: 1 + rng.Intn(3)}
			l.Phase = rng.Intn(l.Skip)
			labels = append(labels, l)
		}
		return labels
	}},
	{"grid64s2", func(w, h int) region.List {
		var labels region.List
		for y := 0; y+64 <= h; y += 128 {
			for x := 0; x+64 <= w; x += 128 {
				labels = append(labels, region.Label{X: x, Y: y, W: 64, H: 64, Stride: 2, Skip: 1})
			}
		}
		return labels
	}},
}

// containerFrame1080p encodes one 1080p Gray8 frame of random pixels under
// the given labels.
func containerFrame1080p(tb testing.TB, labels func(w, h int) region.List) *EncodedFrame {
	tb.Helper()
	const w, h = 1920, 1080
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(labels(w, h).SortByY()); err != nil {
		tb.Fatal(err)
	}
	ef, err := enc.EncodeFrame(genFrame(rand.New(rand.NewSource(1)), w, h, frame.Gray8), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return ef
}

// BenchmarkAppendPacked1080p prices serializing one 1080p frame as the raw
// v1 container (AppendTo) against the packed v2 wire container
// (AppendPacked), each into a reused buffer.
func BenchmarkAppendPacked1080p(b *testing.B) {
	for _, shape := range containerShapes {
		ef := containerFrame1080p(b, shape.labels)
		for _, form := range []struct {
			name   string
			size   int
			append func([]byte) []byte
		}{
			{"raw", ef.EncodedSize(), ef.AppendTo},
			{"packed", ef.PackedMaxSize(), ef.AppendPacked},
		} {
			b.Run(shape.name+"/"+form.name, func(b *testing.B) {
				buf := make([]byte, 0, form.size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = form.append(buf[:0])
				}
				b.ReportMetric(float64(len(buf)), "B/frame")
			})
		}
	}
}

// BenchmarkParseEncodedFrame1080p prices parsing one 1080p frame from the
// raw v1 container against the packed v2 wire container.
func BenchmarkParseEncodedFrame1080p(b *testing.B) {
	for _, shape := range containerShapes {
		ef := containerFrame1080p(b, shape.labels)
		for _, form := range []struct {
			name string
			b    []byte
		}{
			{"raw", ef.AppendTo(nil)},
			{"packed", ef.AppendPacked(nil)},
		} {
			b.Run(shape.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ParseEncodedFrame(form.b); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestAllocsParseEncodedFrame gates the in-place parse at 1080p: the raw
// container's frame aliases its mask, the packed one must decode its mask,
// and that mask is all the packed parse may allocate beyond the raw parse
// — one allocation of (W*H+3)/4 bytes, nothing that grows with the runs.
func TestAllocsParseEncodedFrame(t *testing.T) {
	for _, shape := range containerShapes {
		ef := containerFrame1080p(t, shape.labels)
		raw, packed := ef.AppendTo(nil), ef.AppendPacked(nil)
		parse := func(b []byte) (allocs float64, bytes uint64) {
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, func() {
				if _, err := ParseEncodedFrame(b); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call beyond runs.
			return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		}
		rawAllocs, rawBytes := parse(raw)
		packedAllocs, packedBytes := parse(packed)
		maskBytes := uint64(ef.Mask.SizeBytes())
		if packedAllocs > rawAllocs+1 {
			t.Errorf("%s: packed parse %.0f allocs, raw %.0f: want at most one more (the mask)",
				shape.name, packedAllocs, rawAllocs)
		}
		// The heap rounds a large allocation up to whole 8 KiB pages.
		if packedBytes > rawBytes+maskBytes+8<<10 {
			t.Errorf("%s: packed parse %d B, raw %d B: want at most the %d B mask more",
				shape.name, packedBytes, rawBytes, maskBytes)
		}
	}
}
