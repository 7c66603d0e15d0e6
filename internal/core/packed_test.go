package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// testEncodedFrame encodes one structured frame for container tests.
func testEncodedFrame(t *testing.T, format frame.Format) *EncodedFrame {
	t.Helper()
	const w, h = 64, 48
	enc := NewEncoder(w, h, format)
	if err := enc.SetRegionLabels(region.List{
		{X: 8, Y: 4, W: 40, H: 30, Stride: 2, Skip: 1},
		{X: 0, Y: 40, W: w, H: 8, Stride: 1, Skip: 2},
	}); err != nil {
		t.Fatal(err)
	}
	fr := frame.New(w, h, format)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i*13 + 5)
	}
	ef, err := enc.EncodeFrame(fr, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ef
}

func TestPackedContainerRoundTrip(t *testing.T) {
	for _, format := range []frame.Format{frame.Gray8, frame.RGB24} {
		ef := testEncodedFrame(t, format)
		packed := ef.AppendPacked(nil)
		if len(packed) > ef.PackedMaxSize() {
			t.Fatalf("%v: packed %d bytes exceeds PackedMaxSize %d", format, len(packed), ef.PackedMaxSize())
		}
		got, err := ReadEncodedFrame(bytes.NewReader(packed))
		if err != nil {
			t.Fatalf("%v: read packed: %v", format, err)
		}
		if got.W != ef.W || got.H != ef.H || got.BytesPerPixel != ef.BytesPerPixel || got.FrameIndex != ef.FrameIndex {
			t.Fatalf("%v: header fields changed in round trip", format)
		}
		encodedEqual(t, format.String(), ef, got)
		// The raw container stays the byte-identity reference: re-serializing
		// the packed round trip in v1 form must equal the original v1 bytes.
		if !bytes.Equal(got.AppendTo(nil), ef.AppendTo(nil)) {
			t.Fatalf("%v: raw re-serialization differs after packed round trip", format)
		}
	}
}

// TestPackedContainerShrinksMetadata pins the tentpole's point: on a
// region workload at a realistic geometry (full-stride regions over QVGA,
// as the BENCH_maskcodec rows use) the v2 metadata tail is at least 3x
// smaller than the v1 raw offsets + mask. Stride-2 masks alternate R/St
// per pixel and compress worse — the bound for those is PackedMaxSize, not
// this ratio.
func TestPackedContainerShrinksMetadata(t *testing.T) {
	const w, h = 320, 240
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{
		{X: 80, Y: 60, W: 160, H: 120, Stride: 1, Skip: 1},
		{X: 20, Y: 200, W: 120, H: 30, Stride: 1, Skip: 2},
	}); err != nil {
		t.Fatal(err)
	}
	fr := frame.New(w, h, frame.Gray8)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i * 31)
	}
	ef, err := enc.EncodeFrame(fr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rawMeta := ef.EncodedSize() - encodedHeaderSize - len(ef.Pix)
	packedMeta := len(ef.AppendPacked(nil)) - encodedHeaderSize - len(ef.Pix)
	if packedMeta*3 > rawMeta {
		t.Fatalf("packed metadata %d bytes, want <= raw/3 (%d/3 = %d)", packedMeta, rawMeta, rawMeta/3)
	}
}

// TestReadPackedMetaHostile: every malformed v2 tail must be rejected with
// an error, never a panic or an unbounded allocation, by both the stream
// reader and the in-place parser.
func TestReadPackedMetaHostile(t *testing.T) {
	ef := testEncodedFrame(t, frame.Gray8)
	good := ef.AppendPacked(nil)
	payloadEnd := encodedHeaderSize + len(ef.Pix)
	offLen := int(binary.LittleEndian.Uint32(good[payloadEnd:]))
	maskPos := payloadEnd + 4 + offLen

	mutate := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), good...))
		if _, err := ReadEncodedFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: hostile v2 container accepted", name)
		}
		if _, err := ParseEncodedFrame(b); err == nil {
			t.Errorf("%s: hostile v2 container accepted in place", name)
		}
	}
	mutate("truncated offset block length", func(b []byte) []byte { return b[:payloadEnd+2] })
	mutate("offset block length over cap", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[payloadEnd:], 0xFFFFFFFF)
		return b
	})
	mutate("truncated offset block", func(b []byte) []byte { return b[:payloadEnd+4+1] })
	mutate("delta exceeds width", func(b []byte) []byte {
		// Replace the offset block with h uvarint deltas just beyond W.
		var blk []byte
		var tmp [binary.MaxVarintLen32]byte
		for y := 0; y < ef.H; y++ {
			k := binary.PutUvarint(tmp[:], uint64(ef.W)+1)
			blk = append(blk, tmp[:k]...)
		}
		out := append([]byte(nil), b[:payloadEnd]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blk)))
		out = append(out, blk...)
		return append(out, b[maskPos:]...)
	})
	mutate("trailing bytes after deltas", func(b []byte) []byte {
		out := append([]byte(nil), b[:payloadEnd]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(offLen+1))
		out = append(out, b[payloadEnd+4:payloadEnd+4+offLen]...)
		out = append(out, 0x00)
		return append(out, b[maskPos:]...)
	})
	mutate("truncated mask block length", func(b []byte) []byte { return b[:maskPos+2] })
	mutate("mask block length over cap", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[maskPos:], 0xFFFFFFFF)
		return b
	})
	mutate("truncated mask block", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("unknown mask codec", func(b []byte) []byte {
		b[maskPos+4] = 0x3F
		return b
	})
	mutate("mask disagrees with offsets", func(b []byte) []byte {
		// A valid all-N RLE mask whose R counts contradict the offsets.
		var tmp [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(tmp[:], uint64(ef.W*ef.H-1)<<2|uint64(bitpack.CodeN))
		blk := append([]byte{bitpack.MaskCodecRLE}, tmp[:k]...)
		out := append([]byte(nil), b[:maskPos]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blk)))
		return append(out, blk...)
	})

	// The unmutated container still parses (the mutators copy).
	if _, err := ReadEncodedFrame(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine v2 container rejected: %v", err)
	}
}

// Regression (ISSUE 9 satellite): the payload-length bound used to be
// `payloadLen > w*h*bpp`, whose product overflows a 32-bit int at the
// maximum geometry (2^15 * 2^15 * 4 == 2^32 wraps to 0) — and a hostile
// length of 0x80000000 arrives negative through the uint32->int conversion,
// so `negative > 0` let it through to allocation. payloadLenOK is generic
// so this test pins the 32-bit arithmetic on any host.
func TestPayloadLenCheckOverflow32Bit(t *testing.T) {
	var w, h, bpp int32 = MaxFrameDim, MaxFrameDim, 4
	hostile := int32(math.MinInt32) // int32(uint32(0x80000000))

	// Demonstrate the old check's failure mode: the product wraps to 0 and
	// the comparison accepts the hostile length.
	if product := w * h * bpp; product != 0 {
		t.Fatalf("expected w*h*bpp to wrap to 0 in int32, got %d", product)
	}
	if oldCheckRejects := hostile > w*h*bpp; oldCheckRejects {
		t.Fatal("multiply-form check unexpectedly rejected the hostile length; regression premise broken")
	}

	// The divide-form must reject it.
	if payloadLenOK(hostile, w, h, bpp) {
		t.Fatal("payloadLenOK accepted a negative (wrapped) payload length")
	}
	// And still accept the true maximum payload, which only fits in 64 bits.
	if !payloadLenOK[int64](1<<32, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK rejected the exact maximum payload")
	}
	if payloadLenOK[int64](1<<32+1, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK accepted one byte over the maximum")
	}
}

// TestPayloadLenCheckMatchesReference checks divide-form equivalence with
// the overflow-free 64-bit comparison across randomized geometries.
func TestPayloadLenCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		w := int64(1 + rng.Intn(MaxFrameDim))
		h := int64(1 + rng.Intn(MaxFrameDim))
		bpp := int64(1 + rng.Intn(4))
		var pl int64
		switch rng.Intn(4) {
		case 0:
			pl = rng.Int63n(1 << 33)
		case 1:
			pl = w*h*bpp + int64(rng.Intn(5)) - 2 // boundary neighborhood
		case 2:
			pl = int64(int32(rng.Uint32())) // includes negatives
		case 3:
			pl = rng.Int63n(w*h*bpp + 1)
		}
		want := pl >= 0 && pl <= w*h*bpp
		if got := payloadLenOK(pl, w, h, bpp); got != want {
			t.Fatalf("payloadLenOK(%d, %d, %d, %d) = %v, want %v", pl, w, h, bpp, got, want)
		}
	}
}

// TestAllocsAppendPacked gates the pooled packed-serialize path used by the
// server's publish/GetEncoded paths: steady-state packing into a reused
// scratch must not allocate.
func TestAllocsAppendPacked(t *testing.T) {
	ef := testEncodedFrame(t, frame.Gray8)
	scratch := make([]byte, 0, ef.PackedMaxSize())
	if avg := testing.AllocsPerRun(200, func() {
		scratch = ef.AppendPacked(scratch[:0])
	}); avg != 0 {
		t.Errorf("AppendPacked into pooled scratch: %.1f allocs/run, want 0", avg)
	}
}
