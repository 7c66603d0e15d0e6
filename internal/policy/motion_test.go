package policy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// updateReference is the original per-pixel MotionMap.Update: one float
// accumulation and one tile divide per pixel. It is the oracle the integer
// row-run kernel must match bit for bit.
func updateReference(m *MotionMap, prev, cur *frame.Frame) {
	sum := make([]float64, len(m.Energy))
	count := make([]int, len(m.Energy))
	bpp := cur.BytesPerPixel()
	stride := cur.Stride()
	for y := 0; y < m.FrameH; y++ {
		rowBase := (y / m.Tile) * m.Cols
		pr := prev.Pix[y*stride : (y+1)*stride]
		cr := cur.Pix[y*stride : (y+1)*stride]
		for x := 0; x < m.FrameW; x++ {
			cell := rowBase + x/m.Tile
			off := x * bpp
			for c := 0; c < bpp; c++ {
				d := int(cr[off+c]) - int(pr[off+c])
				if d < 0 {
					d = -d
				}
				sum[cell] += float64(d)
			}
			count[cell] += bpp
		}
	}
	for i := range m.Energy {
		if count[i] > 0 {
			m.Energy[i] = sum[i] / float64(count[i])
		} else {
			m.Energy[i] = 0
		}
	}
}

func randFrame(rng *rand.Rand, w, h int, f frame.Format) *frame.Frame {
	fr := frame.New(w, h, f)
	rng.Read(fr.Pix)
	return fr
}

// TestMotionUpdateMatchesReference pins Energy bit-identical to the
// per-pixel reference over both pixel depths, ragged edge cells and tile
// pitches from 1 to larger than the frame's short side.
func TestMotionUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := [][2]int{{1, 1}, {16, 16}, {17, 5}, {64, 48}, {97, 35}, {160, 120}}
	for _, f := range []frame.Format{frame.Gray8, frame.RGB24} {
		for _, sz := range sizes {
			for _, tile := range []int{1, 3, 16, 33} {
				w, h := sz[0], sz[1]
				got := NewMotionMap(w, h, tile)
				want := NewMotionMap(w, h, tile)
				prev := randFrame(rng, w, h, f)
				for step := 0; step < 3; step++ {
					cur := randFrame(rng, w, h, f)
					if step == 2 {
						copy(cur.Pix, prev.Pix) // an unchanged frame: all-zero energy
					}
					if err := got.Update(prev, cur); err != nil {
						t.Fatal(err)
					}
					updateReference(want, prev, cur)
					for i := range want.Energy {
						if math.Float64bits(got.Energy[i]) != math.Float64bits(want.Energy[i]) {
							t.Fatalf("%v %dx%d tile %d step %d cell %d: energy %v, reference %v",
								f, w, h, tile, step, i, got.Energy[i], want.Energy[i])
						}
					}
					prev = cur
				}
			}
		}
	}
}

// TestMotionUpdateExtremes drives every cell to the largest per-byte delta,
// where the sums are largest, on a frame whose edge cells are ragged.
func TestMotionUpdateExtremes(t *testing.T) {
	const w, h = 101, 67
	for _, f := range []frame.Format{frame.Gray8, frame.RGB24} {
		prev, cur := frame.New(w, h, f), frame.New(w, h, f)
		for i := range cur.Pix {
			cur.Pix[i] = 255
		}
		m := NewMotionMap(w, h, 0)
		if err := m.Update(prev, cur); err != nil {
			t.Fatal(err)
		}
		for i, e := range m.Energy {
			if e != 255 {
				t.Fatalf("%v cell %d: energy %v, want 255", f, i, e)
			}
		}
		if err := m.Update(cur, prev); err != nil {
			t.Fatal(err)
		}
		if m.Max() != 255 {
			t.Fatalf("%v reversed delta: max %v, want 255", f, m.Max())
		}
	}
}

// TestAllocsMotionUpdate gates the steady-state motion kernel at zero
// allocations per call.
func TestAllocsMotionUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w, h = 320, 240
	prev, cur := randFrame(rng, w, h, frame.Gray8), randFrame(rng, w, h, frame.Gray8)
	m := NewMotionMap(w, h, 0)
	if avg := testing.AllocsPerRun(50, func() {
		if err := m.Update(prev, cur); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("MotionMap.Update: %.1f allocs/op, want 0", avg)
	}
}

func BenchmarkMotionUpdate1080p(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const w, h = 1920, 1080
	prev, cur := randFrame(rng, w, h, frame.Gray8), randFrame(rng, w, h, frame.Gray8)
	m := NewMotionMap(w, h, 0)
	b.SetBytes(int64(len(cur.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(prev, cur); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMotionUpdateReference1080p(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const w, h = 1920, 1080
	prev, cur := randFrame(rng, w, h, frame.Gray8), randFrame(rng, w, h, frame.Gray8)
	m := NewMotionMap(w, h, 0)
	b.SetBytes(int64(len(cur.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateReference(m, prev, cur)
	}
}
