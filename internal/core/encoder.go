package core

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/region"
)

// Encoder is the rhythmic pixel encoder (§4.1): a streaming block that
// intercepts the raster-scan pixel stream at the ISP output and forwards
// only pixels matching the stride and skip specification of some region.
//
// Architecture, mirroring Fig. 5:
//
//   - memory-mapped registers hold the y-sorted region label list
//     (SetRegionLabels);
//   - a Sequencer tracks the row location — here the PushRow loop;
//   - once per row, the RoI Selector reduces the label list to the sublist
//     whose y-range covers the row;
//   - the Comparison Engine classifies the row's pixels into the four
//     EncMask codes, span by span from the sublist;
//   - the Sampler forwards CodeR pixels to the packed output and the
//     metadata generators count per-row offsets and append EncMask codes.
//
// The last three stages are the rowEncoder shared with ParallelEncoder.
//
// Pixels are classified with code precedence R > Sk > St > N (the numeric
// order of the 2-bit codes): a pixel covered by several regions takes the
// strongest classification any of them gives it.
//
// An Encoder is not safe for concurrent use.
type Encoder struct {
	w, h   int
	format frame.Format
	bpp    int

	labels region.List // y-sorted; the "memory-mapped register" contents

	// Per-frame streaming state.
	cur *EncodedFrame
	row int
	re  *rowEncoder // per-row datapath and its scratch

	pool *FramePool // optional frame recycling; nil means allocate fresh

	stats EncoderStats
}

// EncoderStats counts the work the encoder performed, used by the scaling
// and ablation experiments (Table 5 discussion).
type EncoderStats struct {
	// FramesEncoded is the number of completed frames.
	FramesEncoded int
	// RowsProcessed is the number of raster rows consumed.
	RowsProcessed int
	// PixelsIn is the number of pixels consumed from the stream.
	PixelsIn int
	// PixelsOut is the number of pixels forwarded to the encoded frame.
	PixelsOut int
	// RoISelectorCompares counts y-range label examinations (once per row
	// per examined label; the sorted list allows early termination).
	RoISelectorCompares int
	// RegionPaintOps is the comparison-engine model's work count: the
	// summed widths of each row's sublist regions (proportional to
	// regional coverage, not W·regions). It is not a count of the byte
	// writes the software encoder performs.
	RegionPaintOps int
	// RowsWithNoRegions counts rows where the RoI selector emitted an empty
	// sublist and comparison was skipped entirely.
	RowsWithNoRegions int
}

// NewEncoder returns an encoder for w x h frames of the given format.
func NewEncoder(w, h int, format frame.Format) *Encoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("core: invalid encoder dimensions %dx%d", w, h))
	}
	return &Encoder{
		w:      w,
		h:      h,
		format: format,
		bpp:    formatBPP(format),
		re:     newRowEncoder(w, formatBPP(format)),
	}
}

// SetRegionLabels installs a capture workload. The list is validated,
// cloned, and sorted by Y (the paper performs this pre-sort in the app
// runtime so the hardware RoI Selector can shortlist rows cheaply). Labels
// persist across frames until replaced.
func (e *Encoder) SetRegionLabels(ls region.List) error {
	if err := ls.Validate(e.w, e.h); err != nil {
		return err
	}
	e.labels = ls.Clone().SortByY()
	return nil
}

// Labels returns the installed y-sorted label list (shared storage; callers
// must not mutate it).
func (e *Encoder) Labels() region.List { return e.labels }

// Stats returns the accumulated work counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// ResetStats zeroes the work counters.
func (e *Encoder) ResetStats() { e.stats = EncoderStats{} }

// SetFramePool installs a frame-recycling pool that BeginFrame draws output
// frames from. Frames the caller is done with must be returned via
// pool.Put; a nil pool restores fresh allocation per frame.
func (e *Encoder) SetFramePool(p *FramePool) { e.pool = p }

// BeginFrame starts streaming a new frame with the given temporal index.
// Any partially streamed frame is discarded.
func (e *Encoder) BeginFrame(frameIndex int) {
	ef := e.pool.Get(e.w, e.h, e.bpp)
	ef.FrameIndex = frameIndex
	ef.RowOffsets = append(ef.RowOffsets, 0)
	e.cur = ef
	e.row = 0
}

// PushRow consumes one raster line of w*bpp bytes. Rows must arrive in
// order; pushing more than h rows or a missized row panics, as a hardware
// stream mismatch would be a wiring bug rather than a runtime condition.
func (e *Encoder) PushRow(line []byte) {
	if e.cur == nil {
		panic("core: PushRow before BeginFrame")
	}
	if e.row >= e.h {
		panic(fmt.Sprintf("core: row %d pushed to %d-row frame", e.row, e.h))
	}
	if len(line) != e.w*e.bpp {
		panic(fmt.Sprintf("core: row is %d bytes, want %d", len(line), e.w*e.bpp))
	}
	y := e.row
	var n int
	e.cur.Pix, n = e.re.encodeRow(e.labels, y, e.cur.FrameIndex, line, e.cur.Mask.Bytes(), e.cur.Pix, &e.stats)
	e.cur.RowOffsets = append(e.cur.RowOffsets, e.cur.RowOffsets[y]+uint32(n))
	e.row++
}

// EndFrame completes the stream and returns the encoded frame. It panics if
// fewer than h rows were pushed.
func (e *Encoder) EndFrame() *EncodedFrame {
	if e.cur == nil {
		panic("core: EndFrame before BeginFrame")
	}
	if e.row != e.h {
		panic(fmt.Sprintf("core: EndFrame after %d of %d rows", e.row, e.h))
	}
	ef := e.cur
	e.cur = nil
	e.stats.FramesEncoded++
	return ef
}

// EncodeFrame streams an entire frame through the encoder and returns the
// encoded result. The frame must match the encoder's dimensions and format.
func (e *Encoder) EncodeFrame(fr *frame.Frame, frameIndex int) (*EncodedFrame, error) {
	if fr.W != e.w || fr.H != e.h {
		return nil, fmt.Errorf("core: frame is %dx%d, encoder expects %dx%d", fr.W, fr.H, e.w, e.h)
	}
	if fr.Format != e.format {
		return nil, fmt.Errorf("core: frame format %v, encoder expects %v", fr.Format, e.format)
	}
	e.BeginFrame(frameIndex)
	stride := fr.Stride()
	for y := 0; y < e.h; y++ {
		e.PushRow(fr.Pix[y*stride : (y+1)*stride])
	}
	return e.EndFrame(), nil
}
