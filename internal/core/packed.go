package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitpack"
)

// RPXE v2: the packed-metadata container, the one form encoded frames take
// on the wire (GET_ENCODED replies and FRAME_PUSH records).
//
// Version 1 serializes the decoder metadata raw — 4 bytes per row offset
// plus the 2 bpp EncMask, the paper's ~8% overhead (§3) — and stays the
// .rpxs file form and the byte-identity reference (AppendTo/WriteTo).
// Version 2 keeps the 28-byte header and pixel payload byte-identical but
// replaces the metadata tail with two length-prefixed blocks:
//
//	u32 offLen  | uvarint row-offset deltas (H values; RowOffsets[0] is 0)
//	u32 maskLen | packed mask (codec id + body, see bitpack.AppendPacked)
//
// Offsets are monotone with per-row deltas bounded by W, so deltas are
// small uvarints; the mask is RLE with a raw fallback. Both block lengths
// are capped by what the header geometry can produce before anything is
// read or allocated, so a hostile length prefix cannot force an
// over-allocation. ReadEncodedFrame and ParseEncodedFrame accept both
// versions and share one v2 metadata parser, decodePackedMeta.

// RPXE container versions.
const (
	encodedVersionRaw    = 1 // raw row offsets + raw mask
	encodedVersionPacked = 2 // varint offset deltas + packed mask
)

// PackedMaxSize bounds the serialized length AppendPacked can produce, so
// pooled callers can size a scratch buffer once and reuse it without
// reallocating.
func (ef *EncodedFrame) PackedMaxSize() int {
	return encodedHeaderSize + len(ef.Pix) +
		4 + binary.MaxVarintLen32*ef.H +
		4 + bitpack.PackedMaxSize(ef.Mask.Len())
}

// AppendPacked appends the RPXE v2 container to dst and returns the
// extended slice. It performs no allocation when dst has PackedMaxSize()
// spare capacity. The raw container (AppendTo/WriteTo) remains the
// byte-identity reference form; this one trades encode work for wire bytes.
func (ef *EncodedFrame) AppendPacked(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, encodedMagic)
	dst = binary.LittleEndian.AppendUint32(dst, encodedVersionPacked)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.BytesPerPixel))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.FrameIndex))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ef.Pix)))
	dst = append(dst, ef.Pix...)

	offPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var tmp [binary.MaxVarintLen32]byte
	for y := 0; y < ef.H; y++ {
		k := binary.PutUvarint(tmp[:], uint64(ef.RowOffsets[y+1]-ef.RowOffsets[y]))
		dst = append(dst, tmp[:k]...)
	}
	binary.LittleEndian.PutUint32(dst[offPos:], uint32(len(dst)-offPos-4))

	maskPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = bitpack.AppendPacked(dst, ef.Mask)
	binary.LittleEndian.PutUint32(dst[maskPos:], uint32(len(dst)-maskPos-4))
	return dst
}

// packedBlockCaps returns the largest offset-delta block and packed-mask
// block a w x h frame's encoder can produce: the caps every v2 length
// prefix is checked against before use.
func packedBlockCaps(w, h int) (offCap, maskCap int64) {
	return int64(binary.MaxVarintLen32) * int64(h), int64(bitpack.PackedMaxSize(w * h))
}

// cutPackedBlock splits one length-prefixed v2 block off the front of b.
func cutPackedBlock(b []byte, limit int64, what string) (block, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("core: short %s length: %d bytes", what, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(n) > limit {
		return nil, nil, fmt.Errorf("core: %s of %d bytes exceeds cap %d", what, n, limit)
	}
	if b = b[4:]; int64(len(b)) < int64(n) {
		return nil, nil, fmt.Errorf("core: short %s: %d of %d bytes", what, len(b), n)
	}
	return b[:n], b[n:], nil
}

// readPackedBlock reads one length-prefixed v2 block from r.
func readPackedBlock(r io.Reader, limit int64, what string) ([]byte, error) {
	var l [4]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return nil, fmt.Errorf("core: short %s length: %w", what, err)
	}
	n := binary.LittleEndian.Uint32(l[:])
	if int64(n) > limit {
		return nil, fmt.Errorf("core: %s of %d bytes exceeds cap %d", what, n, limit)
	}
	b, err := readExact(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("core: short %s: %w", what, err)
	}
	return b, nil
}

// decodePackedMeta decodes the v2 metadata blocks — the row-offset deltas
// and the packed mask — into ef, whose geometry the caller has already
// validated against MaxFrameDim. It reads both blocks in place and
// allocates only the offset table and the mask.
func decodePackedMeta(ef *EncodedFrame, offs, mask []byte) error {
	w, h := ef.W, ef.H
	ef.RowOffsets = make([]uint32, h+1)
	total := uint64(0)
	for y := 0; y < h; y++ {
		delta, k := binary.Uvarint(offs)
		if k <= 0 {
			return fmt.Errorf("core: malformed offset delta at row %d", y)
		}
		offs = offs[k:]
		if delta > uint64(w) {
			return fmt.Errorf("core: row %d offset delta %d exceeds width %d", y, delta, w)
		}
		total += delta
		ef.RowOffsets[y+1] = uint32(total)
	}
	if len(offs) != 0 {
		return fmt.Errorf("core: %d trailing bytes after offset deltas", len(offs))
	}
	ef.Mask = bitpack.NewMask2(w * h)
	if err := bitpack.DecodePackedInto(ef.Mask, mask); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
