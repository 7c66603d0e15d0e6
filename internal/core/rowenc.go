package core

import (
	"encoding/binary"

	"repro/internal/bitpack"
	"repro/internal/region"
)

// rowEncoder is the per-row datapath shared by the sequential Encoder and
// the ParallelEncoder's band workers: RoI Selector, Comparison Engine and
// Sampler (§4.1). Classification works on spans rather than pixels: a row
// costs one memmove per sublist region, one write per strided R lattice
// point, and a word-at-a-time pack and gather over the sublist's extent.
type rowEncoder struct {
	w, bpp int

	codes []byte // classification of the current row, one code per byte
	// fill[c] is a constant row of w copies of code c (St, Sk and R); the
	// Comparison Engine copies spans out of it.
	fill [4][]byte

	sublist []int          // RoI Selector output (indices into labels)
	st, sk  []region.Label // sublist regions painted at St and at Sk
	r       []region.Label // regions with R pixels on this row
}

func newRowEncoder(w, bpp int) *rowEncoder {
	re := &rowEncoder{w: w, bpp: bpp, codes: make([]byte, w)}
	for _, c := range []bitpack.Code{bitpack.CodeSt, bitpack.CodeSk, bitpack.CodeR} {
		row := make([]byte, w)
		for i := range row {
			row[i] = byte(c)
		}
		re.fill[c] = row
	}
	return re
}

// encodeRow encodes raster row y from line: it ORs the row's codes into the
// packed EncMask bytes mask (whose elements for this row must still be
// CodeN), appends the row's CodeR pixels to payload, and returns the grown
// payload with the number of pixels appended.
func (re *rowEncoder) encodeRow(labels region.List, y, frameIndex int, line, mask, payload []byte, stats *EncoderStats) ([]byte, int) {
	stats.RowsProcessed++
	stats.PixelsIn += re.w
	re.sublist = rowSublist(labels, y, re.sublist, stats)
	if len(re.sublist) == 0 {
		// Entire row is non-regional: skip comparison entirely (the
		// paper's "the encoder saves work by skipping region comparison
		// entirely for those rows where there are no regions").
		stats.RowsWithNoRegions++
		return payload, 0
	}
	lo, hi := re.paint(labels, y, frameIndex, stats)
	packCodes(mask, y*re.w+lo, re.codes[lo:hi])
	payload, n := gatherR(payload, re.codes, lo, hi, line, re.bpp)
	stats.PixelsOut += n
	return payload, n
}

// rowSublist is the RoI Selector (§4.1) in function form: it fills dst with
// the indices of labels whose y-range covers row y. The list must be
// y-sorted, so scanning stops at the first label starting below the row.
func rowSublist(labels region.List, y int, dst []int, stats *EncoderStats) []int {
	dst = dst[:0]
	for i, l := range labels {
		stats.RoISelectorCompares++
		if l.Y > y {
			break
		}
		if l.RowInYRange(y) {
			dst = append(dst, i)
		}
	}
	return dst
}

// paint is the Comparison Engine (§4.1): it classifies row y into
// re.codes[lo:hi), the extent of the sublist, and returns that extent.
// Codes take precedence R > Sk > St > N, so painting the levels in
// ascending order makes each later write the maximum: St spans (strided
// regions, whole width), then Sk spans (skipped regions), then R (whole
// spans of stride-1 regions, lattice points of strided ones).
func (re *rowEncoder) paint(labels region.List, y, frameIndex int, stats *EncoderStats) (lo, hi int) {
	re.st, re.sk, re.r = re.st[:0], re.sk[:0], re.r[:0]
	lo, hi = re.w, 0
	for _, li := range re.sublist {
		l := labels[li]
		stats.RegionPaintOps += l.W
		lo, hi = min(lo, l.X), max(hi, l.X+l.W)
		switch {
		case !l.ActiveAt(frameIndex):
			re.sk = append(re.sk, l)
		case l.Stride == 1:
			re.r = append(re.r, l)
		case (y-l.Y)%l.Stride != 0:
			re.st = append(re.st, l) // off the vertical lattice
		default:
			re.st = append(re.st, l)
			re.r = append(re.r, l)
		}
	}
	codes := re.codes
	clear(codes[lo:hi])
	for _, l := range re.st {
		copy(codes[l.X:l.X+l.W], re.fill[bitpack.CodeSt])
	}
	for _, l := range re.sk {
		copy(codes[l.X:l.X+l.W], re.fill[bitpack.CodeSk])
	}
	for _, l := range re.r {
		if l.Stride == 1 {
			copy(codes[l.X:l.X+l.W], re.fill[bitpack.CodeR])
			continue
		}
		for x := l.X; x < l.X+l.W; x += l.Stride {
			codes[x] = byte(bitpack.CodeR)
		}
	}
	return lo, hi
}

// packCodes is the EncMask half of the Sampler: it ORs codes (one per byte)
// into the packed 2-bit mask starting at element i, four codes per mask
// byte. Whole bytes are assigned; the partial bytes at either end are ORed,
// since they may hold elements of the neighbouring rows.
func packCodes(mask []byte, i int, codes []byte) {
	for ; len(codes) > 0 && i&3 != 0; i++ {
		mask[i>>2] |= codes[0] << (2 * (i & 3))
		codes = codes[1:]
	}
	dst := mask[i>>2:]
	// Eight codes at a time: code k sits at bit 8k of u, and the shifts
	// by 6, 12 and 18 bring codes 1-3 (and 5-7) down beside code 0 (and
	// 4) at bits 2, 4 and 6 of each 32-bit half.
	for len(codes) >= 8 {
		u := binary.LittleEndian.Uint64(codes)
		u |= u>>6 | u>>12 | u>>18
		dst[0], dst[1] = byte(u), byte(u>>32)
		codes, dst = codes[8:], dst[2:]
	}
	for k, c := range codes {
		dst[k>>2] |= c << (2 * (k & 3))
	}
}

// Eight-codes-at-a-time probes: a code byte is R (3) exactly when bits 0
// and 1 are both set.
const (
	rLanes = 0x0101010101010101
	allR   = 0x0303030303030303
)

// gatherR is the payload half of the Sampler: it appends the pixels of
// line whose code in codes[lo:hi) is R, run by run, and returns the grown
// payload and the pixel count.
func gatherR(payload, codes []byte, lo, hi int, line []byte, bpp int) ([]byte, int) {
	n := 0
	for x := lo; x < hi; {
		if x+8 <= hi {
			if u := binary.LittleEndian.Uint64(codes[x:]); u&(u>>1)&rLanes == 0 {
				x += 8
				continue
			}
		}
		if codes[x] != byte(bitpack.CodeR) {
			x++
			continue
		}
		end := x + 1
		for end+8 <= hi && binary.LittleEndian.Uint64(codes[end:]) == allR {
			end += 8
		}
		for end < hi && codes[end] == byte(bitpack.CodeR) {
			end++
		}
		payload = append(payload, line[x*bpp:end*bpp]...)
		n += end - x
		x = end
	}
	return payload, n
}
