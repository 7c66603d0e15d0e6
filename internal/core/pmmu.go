package core

import (
	"fmt"

	"repro/internal/bitpack"
)

// This file implements the Pixel Memory Management Unit (§4.2.1): the
// request-path half of the rhythmic pixel decoder. The PMMU receives pixel
// transactions addressed in the *decoded* frame address space and translates
// them into sub-requests against the packed *encoded* frames, using only the
// per-row offsets and EncMask metadata — never the region labels, which is
// what makes the decoder agnostic to the number of regions.

// SourceNone marks a sub-request that needs no memory fetch (hold or black).
const SourceNone = -1

// SubRequest is one translated unit of a pixel transaction: a run of
// consecutive decoded-space pixels that share a resolution strategy.
//
// Mirroring the paper, a sub-request is "characterized by a base address (of
// the encoded frame), offset (row and column), and a tag index of which
// frame hosts the desired pixels": here Source is the frame tag (0 = most
// recent, 1..depth-1 = older history), EncIndex the pixel offset into that
// frame's packed stream, and (X, Y, Count) the decoded-space run.
type SubRequest struct {
	// X, Y, Count identify the decoded-space pixel run [X, X+Count) in row Y.
	X, Y, Count int
	// Code is the EncMask classification that produced this sub-request:
	// CodeR and CodeSk runs carry a memory fetch; CodeSt runs are serviced
	// from the resampling buffer; CodeN runs emit black.
	Code bitpack.Code
	// Source is the history tag of the encoded frame to fetch from, or
	// SourceNone when no fetch is needed.
	Source int
	// EncIndex is the starting pixel index within the source frame's packed
	// stream; valid only when Source != SourceNone.
	EncIndex int
}

// PMMU translates decoded-space pixel transactions against a window of
// recent encoded frames. Frame tag 0 is the newest frame.
type PMMU struct {
	history []*EncodedFrame // newest first; the Metadata Scratchpad contents
	base    uint64          // decoded framebuffer base address (Out-of-Frame handler)

	stats PMMUStats

	// Per-call translation state, kept on the PMMU so that translating a
	// row allocates nothing: the row being translated, and the lazy R-count
	// cursor of each history frame (at[i] < 0 until first consulted;
	// rCount[i] is the R count of frame i's row before column at[i]).
	y, x0, rowBase int
	first          int // len(dst) on entry: merging stops there
	at, rCount     []int
}

// PMMUStats counts translation work.
type PMMUStats struct {
	// Transactions is the number of pixel transactions translated.
	Transactions int
	// SubRequests is the number of generated sub-requests.
	SubRequests int
	// Bypassed counts transactions forwarded as standard memory accesses by
	// the Out-of-Frame handler.
	Bypassed int
	// MetadataBitsRead counts EncMask bits examined during translation:
	// 2 bits per classified pixel (plus 2 per history frame consulted while
	// resolving an Sk pixel), and one 2*x0-bit row-prefix scan per history
	// frame the first time a fetch consults that frame's R-count cursor for
	// the run. Frames no pixel resolves against charge nothing — matching
	// what the hardware metadata scratchpad actually reads.
	MetadataBitsRead int
}

// NewPMMU returns a PMMU over the given history window (newest first) with
// the decoded framebuffer mapped at base.
func NewPMMU(history []*EncodedFrame, base uint64) *PMMU {
	return &PMMU{history: history, base: base}
}

// Stats returns the accumulated counters.
func (p *PMMU) Stats() PMMUStats { return p.stats }

// newest returns the most recent encoded frame.
func (p *PMMU) newest() *EncodedFrame { return p.history[0] }

// InFrame implements the Out-of-Frame Handler check: it reports whether a
// byte address falls inside the decoded framebuffer address space.
//
// The check is written against the remaining capacity past addr rather than
// as addr+length <= end, which wraps around for adversarial addresses near
// the top of the 64-bit address space and would admit an out-of-frame
// transaction.
func (p *PMMU) InFrame(addr uint64, length int) bool {
	if len(p.history) == 0 || length < 0 {
		return false
	}
	f := p.newest()
	size := uint64(f.W) * uint64(f.H) * uint64(f.BytesPerPixel)
	if addr < p.base {
		return false
	}
	off := addr - p.base
	return off <= size && uint64(length) <= size-off
}

// TranslateAddr translates a byte-addressed transaction. Transactions
// outside the decoded framebuffer are bypassed (nil, false, nil). Pixel
// transactions must be pixel-aligned and must not cross a row boundary;
// higher-level code splits multi-row requests.
func (p *PMMU) TranslateAddr(addr uint64, length int) (subs []SubRequest, pixel bool, err error) {
	p.stats.Transactions++
	if !p.InFrame(addr, length) {
		p.stats.Bypassed++
		return nil, false, nil
	}
	f := p.newest()
	bpp := f.BytesPerPixel
	rel := int(addr - p.base)
	if rel%bpp != 0 || length%bpp != 0 {
		return nil, true, fmt.Errorf("core: misaligned pixel transaction addr=%d len=%d bpp=%d", addr, length, bpp)
	}
	pixIdx := rel / bpp
	x, y := pixIdx%f.W, pixIdx/f.W
	n := length / bpp
	if x+n > f.W {
		return nil, true, fmt.Errorf("core: pixel transaction crosses row boundary (x=%d n=%d w=%d)", x, n, f.W)
	}
	subs, err = p.AppendRow(nil, y, x, x+n)
	return subs, true, err
}

// AppendRow translates the decoded-space pixel run [x0, x1) of row y into
// sub-requests appended to dst and returns the extended slice. This is the
// Transaction Analyzer + translator: it reads the EncMask codes of the run
// one uniform run at a time, resolves each run's hosting frame, and merges
// adjacent runs with the same resolution into a single sub-request. Merging
// never reaches into sub-requests that were already in dst, so a caller may
// reuse one slice across rows (AppendRow(subs[:0], ...)) and translate
// without allocating once the slice has grown to the row's run count.
func (p *PMMU) AppendRow(dst []SubRequest, y, x0, x1 int) ([]SubRequest, error) {
	f := p.newest()
	if y < 0 || y >= f.H || x0 < 0 || x1 > f.W || x0 >= x1 {
		return dst, fmt.Errorf("core: run [%d,%d) of row %d outside %dx%d frame", x0, x1, y, f.W, f.H)
	}
	p.y, p.x0, p.rowBase, p.first = y, x0, y*f.W, len(dst)
	// History cursors start uninitialized: a frame's 2*x0-bit row-prefix
	// scan is charged only when some pixel actually resolves against it.
	if n := len(p.history); cap(p.at) < n {
		p.at, p.rCount = make([]int, n), make([]int, n)
	}
	p.at, p.rCount = p.at[:len(p.history)], p.rCount[:len(p.history)]
	for i := range p.at {
		p.at[i] = -1
	}

	// The newest frame's R cursor is a running count of the R codes this
	// call has passed; its row prefix is scanned on the first fetch only.
	rowOff := int(f.RowOffsets[y])
	rPrefix, rSeen := -1, 0
	for x := x0; x < x1; {
		code, end := f.Mask.Run(p.rowBase+x, p.rowBase+x1)
		end -= p.rowBase
		n := end - x
		p.stats.MetadataBitsRead += 2 * n
		switch code {
		case bitpack.CodeR:
			if rPrefix < 0 {
				rPrefix = f.Mask.CountRRange(p.rowBase, p.rowBase+x0)
				p.stats.MetadataBitsRead += 2 * x0 // scratchpad row prefix scan
			}
			dst = p.appendSub(dst, SubRequest{X: x, Y: y, Count: n, Code: bitpack.CodeR, Source: 0, EncIndex: rowOff + rPrefix + rSeen})
			rSeen += n
		case bitpack.CodeSk:
			dst = p.resolveSk(dst, 1, x, end)
		default: // CodeN, CodeSt: no fetch
			dst = p.appendSub(dst, SubRequest{X: x, Y: y, Count: n, Code: code, Source: SourceNone})
		}
		x = end
	}
	return dst, nil
}

// resolveSk resolves the temporally skipped run [xa, xb) of the current row
// against history frames i and older: each pixel takes the most recent older
// frame where it was captured (CodeR), falls back to the resampling buffer
// when the frame that next holds it strided it out (CodeSt), and decodes
// black when no frame in the scratchpad window holds it. Every history code
// examined is charged 2 metadata bits.
func (p *PMMU) resolveSk(dst []SubRequest, i, xa, xb int) []SubRequest {
	if i >= len(p.history) {
		return p.appendSub(dst, SubRequest{X: xa, Y: p.y, Count: xb - xa, Code: bitpack.CodeN, Source: SourceNone})
	}
	hf := p.history[i]
	for x := xa; x < xb; {
		code, end := hf.Mask.Run(p.rowBase+x, p.rowBase+xb)
		end -= p.rowBase
		n := end - x
		p.stats.MetadataBitsRead += 2 * n
		switch code {
		case bitpack.CodeR:
			enc := int(hf.RowOffsets[p.y]) + p.historyRBefore(i, x)
			dst = p.appendSub(dst, SubRequest{X: x, Y: p.y, Count: n, Code: bitpack.CodeSk, Source: i, EncIndex: enc})
			p.at[i], p.rCount[i] = end, p.rCount[i]+n
		case bitpack.CodeSt:
			dst = p.appendSub(dst, SubRequest{X: x, Y: p.y, Count: n, Code: bitpack.CodeSt, Source: SourceNone})
		default: // CodeN, CodeSk: look further back
			dst = p.resolveSk(dst, i+1, x, end)
		}
		x = end
	}
	return dst
}

// historyRBefore returns the number of R codes before column x in history
// frame i's row. The cursor initializes lazily with a scan of the row prefix
// [0, x0) and then advances by CountRRange over the columns it skips, so a
// whole row costs O(W) popcounts rather than O(W^2).
func (p *PMMU) historyRBefore(i, x int) int {
	m := p.history[i].Mask
	if p.at[i] < 0 {
		p.rCount[i] = m.CountRRange(p.rowBase, p.rowBase+p.x0)
		p.at[i] = p.x0
		p.stats.MetadataBitsRead += 2 * p.x0 // scratchpad row prefix scan
	}
	if x > p.at[i] {
		p.rCount[i] += m.CountRRange(p.rowBase+p.at[i], p.rowBase+x)
		p.at[i] = x
	}
	return p.rCount[i]
}

// appendSub appends s to dst, merging it into the previous sub-request when
// this AppendRow call appended that one and the two runs are contiguous in
// decoded space and, for fetches, in the source frame's packed stream.
func (p *PMMU) appendSub(dst []SubRequest, s SubRequest) []SubRequest {
	if n := len(dst); n > p.first {
		prev := &dst[n-1]
		if prev.Code == s.Code && prev.Source == s.Source && prev.X+prev.Count == s.X &&
			(s.Source == SourceNone || prev.EncIndex+prev.Count == s.EncIndex) {
			prev.Count += s.Count
			return dst
		}
	}
	p.stats.SubRequests++
	return append(dst, s)
}
