package bitpack

import (
	"encoding/binary"
	"fmt"
)

// Packed mask codec.
//
// EncMask rows are long runs of identical 2-bit codes — whole rows of N
// outside the labeled regions, R/St alternating only inside them — so the
// raw 2 bpp packing (the paper's ~8% metadata overhead, §3) compresses
// heavily under run-length coding. The packed form is one codec-id byte
// followed by the codec's body:
//
//	codec 0 (raw):  the canonical ceil(n/4)-byte 2 bpp packing, verbatim.
//	codec 1 (RLE):  a sequence of uvarint tokens, token = (runLen-1)<<2 | code,
//	                whose run lengths must sum to exactly n.
//
// The encoder always picks the smaller form, so the packed size is bounded
// by the raw size + 1 byte even on adversarial (alternating-code) masks.
// The decoder treats its input as untrusted wire data: allocation is
// bounded by the caller-declared element count, never by the input bytes.

// Mask codec identifiers, the first byte of a packed mask.
const (
	// MaskCodecRaw marks a verbatim canonical 2 bpp body.
	MaskCodecRaw byte = 0
	// MaskCodecRLE marks a run-length body of uvarint (runLen-1)<<2|code
	// tokens.
	MaskCodecRLE byte = 1
)

// PackedMaxSize bounds the packed form of an n-element mask: the codec-id
// byte plus the raw body the encoder falls back to when RLE does not win.
func PackedMaxSize(n int) int { return 1 + (n+3)/4 }

// AppendPacked appends the packed form of m to dst and returns the extended
// slice. It emits the RLE body when that is strictly smaller than raw, and
// the raw body otherwise, so len(appended) <= PackedMaxSize(m.Len()).
func AppendPacked(dst []byte, m *Mask2) []byte {
	start := len(dst)
	dst = append(dst, MaskCodecRLE)
	rawSize := len(m.data)
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < m.n; {
		c, j := m.Run(i, m.n)
		k := binary.PutUvarint(tmp[:], uint64(j-i-1)<<2|uint64(c))
		if len(dst)-start-1+k >= rawSize {
			// RLE cannot win; fall back to the raw body. Checked before
			// the append so dst never outgrows PackedMaxSize even
			// transiently — pooled callers size their scratch by it.
			dst = dst[:start]
			dst = append(dst, MaskCodecRaw)
			return append(dst, m.data...)
		}
		dst = append(dst, tmp[:k]...)
		i = j
	}
	return dst
}

// DecodePacked decodes a packed mask declared to hold n elements. The
// allocation is NewMask2(n) regardless of the input bytes.
func DecodePacked(data []byte, n int) (*Mask2, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitpack: packed mask: negative length %d", n)
	}
	m := NewMask2(n)
	if err := DecodePackedInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodePackedInto decodes a packed mask into m, which supplies the element
// count. Every element of m is overwritten on success; on error m's
// contents are unspecified. It allocates nothing, so pooled decode paths
// can reuse one mask across frames.
func DecodePackedInto(m *Mask2, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("bitpack: packed mask: empty buffer")
	}
	codec, body := data[0], data[1:]
	n := m.n
	switch codec {
	case MaskCodecRaw:
		need := (n + 3) / 4
		if len(body) != need {
			return fmt.Errorf("bitpack: raw mask body is %d bytes, want %d for %d elements", len(body), need, n)
		}
		copy(m.data, body)
		// Canonicalize padding, mirroring FromBytes: wire peers must not
		// be able to smuggle bits the element space cannot express.
		if rem := n & 3; rem != 0 {
			m.data[need-1] &= byte(1)<<(uint(rem)*2) - 1
		}
	case MaskCodecRLE:
		i := 0
		for len(body) > 0 {
			v, k := binary.Uvarint(body)
			if k <= 0 {
				return fmt.Errorf("bitpack: packed mask: malformed varint token at element %d", i)
			}
			body = body[k:]
			run := v>>2 + 1
			if run > uint64(n-i) {
				return fmt.Errorf("bitpack: packed mask: run of %d exceeds %d remaining elements", run, n-i)
			}
			m.Fill(i, i+int(run), Code(v&3))
			i += int(run)
		}
		if i != n {
			return fmt.Errorf("bitpack: packed mask: runs cover %d of %d elements", i, n)
		}
	default:
		return fmt.Errorf("bitpack: unknown mask codec %d", codec)
	}
	return nil
}
