package policy

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/region"
)

// DefaultMotionTile is the change-energy grid pitch in pixels.
const DefaultMotionTile = 16

// MotionMap is a per-tile change-energy grid: the mean absolute byte
// difference between two consecutive decoded frames, one cell per Tile x
// Tile pixel block. It is the frame-differencing substrate the scenario
// policies share — a software stand-in for the motion metadata an
// intelligent-skipping sensor (arXiv:2409.17341) or an event camera
// (arXiv:2206.04341) would deliver for free.
type MotionMap struct {
	// FrameW, FrameH are the pixel dimensions the map covers.
	FrameW, FrameH int
	// Tile is the cell pitch in pixels (edge cells may be smaller).
	Tile int
	// Cols, Rows are the grid dimensions.
	Cols, Rows int
	// Energy is the row-major grid: mean absolute byte delta per cell, in
	// [0, 255]. All zeros until the first Update.
	Energy []float64

	// sums is Update's per-cell integer accumulator, grown on the first
	// call and reused after.
	sums []uint64
}

// NewMotionMap returns a zeroed grid for a w x h frame (tile <= 0 selects
// DefaultMotionTile).
func NewMotionMap(w, h, tile int) *MotionMap {
	if tile <= 0 {
		tile = DefaultMotionTile
	}
	cols, rows := (w+tile-1)/tile, (h+tile-1)/tile
	return &MotionMap{
		FrameW: w, FrameH: h,
		Tile: tile, Cols: cols, Rows: rows,
		Energy: make([]float64, cols*rows),
	}
}

// At returns the cell's energy.
func (m *MotionMap) At(col, row int) float64 { return m.Energy[row*m.Cols+col] }

// Update recomputes the grid from two consecutive frames of the map's
// geometry. Differencing runs over raw bytes, so every channel of a
// multi-channel format contributes.
//
// Each row's run of bytes inside a tile is summed in an integer
// accumulator, so the per-cell sums are exact and Energy is the same
// float64(sum)/float64(count) quotient a per-pixel float accumulation
// yields. A steady-state call allocates nothing: the sums live in the map.
func (m *MotionMap) Update(prev, cur *frame.Frame) error {
	if prev.W != m.FrameW || prev.H != m.FrameH || cur.W != m.FrameW || cur.H != m.FrameH {
		return fmt.Errorf("policy: motion map is %dx%d, frames are %dx%d and %dx%d",
			m.FrameW, m.FrameH, prev.W, prev.H, cur.W, cur.H)
	}
	if prev.Format != cur.Format {
		return fmt.Errorf("policy: motion frames disagree on format: %v vs %v", prev.Format, cur.Format)
	}
	if len(m.sums) != len(m.Energy) {
		m.sums = make([]uint64, len(m.Energy))
	}
	clear(m.sums)
	bpp := cur.BytesPerPixel()
	stride := cur.Stride()
	run := m.Tile * bpp
	for y := 0; y < m.FrameH; y++ {
		sums := m.sums[(y/m.Tile)*m.Cols:][:m.Cols]
		pr := prev.Pix[y*stride : (y+1)*stride]
		cr := cur.Pix[y*stride : (y+1)*stride]
		for c := range sums {
			x0 := c * run
			x1 := min(x0+run, stride)
			sums[c] += absDiffSum(pr[x0:x1], cr[x0:x1])
		}
	}
	for r := 0; r < m.Rows; r++ {
		ch := min(m.Tile, m.FrameH-r*m.Tile)
		for c := 0; c < m.Cols; c++ {
			i := r*m.Cols + c
			count := min(m.Tile, m.FrameW-c*m.Tile) * ch * bpp
			if count > 0 {
				m.Energy[i] = float64(m.sums[i]) / float64(count)
			} else {
				m.Energy[i] = 0
			}
		}
	}
	return nil
}

// absDiffSum returns the sum of |a[i]-b[i]| over a. The absolute value is
// branch-free (sign-mask xor), and the loop is unrolled by four into two
// accumulators with constant-length subslices, so it carries no bounds
// checks and no data-dependent branch.
func absDiffSum(a, b []byte) uint64 {
	b = b[:len(a)]
	var s0, s1 uint64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		p, q := a[i:i+4:i+4], b[i:i+4:i+4]
		d0, d1 := int64(p[0])-int64(q[0]), int64(p[1])-int64(q[1])
		d2, d3 := int64(p[2])-int64(q[2]), int64(p[3])-int64(q[3])
		m0, m1, m2, m3 := d0>>63, d1>>63, d2>>63, d3>>63
		s0 += uint64((d0^m0)-m0) + uint64((d2^m2)-m2)
		s1 += uint64((d1^m1)-m1) + uint64((d3^m3)-m3)
	}
	for ; i < len(a); i++ {
		d := int64(a[i]) - int64(b[i])
		m := d >> 63
		s0 += uint64((d ^ m) - m)
	}
	return s0 + s1
}

// Max returns the largest cell energy.
func (m *MotionMap) Max() float64 {
	max := 0.0
	for _, e := range m.Energy {
		if e > max {
			max = e
		}
	}
	return max
}

// tileLabel builds one clipped label covering the grid cells [c0, c1] of
// row r with the given sampling parameters.
func (m *MotionMap) tileLabel(c0, c1, r, stride, skip int) (region.Label, bool) {
	x := c0 * m.Tile
	y := r * m.Tile
	w := (c1 - c0 + 1) * m.Tile
	if x+w > m.FrameW {
		w = m.FrameW - x
	}
	h := m.Tile
	if y+h > m.FrameH {
		h = m.FrameH - y
	}
	return region.Clip(region.Label{
		X: x, Y: y, W: w, H: h,
		Stride: stride,
		Skip:   skip,
		Phase:  phaseFor(x, y, skip),
	}, m.FrameW, m.FrameH)
}
