package bitpack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// appendPackedRef is the element-at-a-time reference encoder: it extends
// each run with Get, a whole byte at a time only while the position is
// byte-aligned. AppendPacked must match it byte for byte.
func appendPackedRef(dst []byte, m *Mask2) []byte {
	start := len(dst)
	dst = append(dst, MaskCodecRLE)
	rawSize := len(m.data)
	n := m.n
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < n; {
		c := m.Get(i)
		j := i + 1
		pattern := byte(c) * 0x55
		for j&3 == 0 && n-j >= 4 && m.data[j>>2] == pattern {
			j += 4
		}
		for j < n && m.Get(j) == c {
			j++
		}
		k := binary.PutUvarint(tmp[:], uint64(j-i-1)<<2|uint64(c))
		if len(dst)-start-1+k >= rawSize {
			dst = dst[:start]
			dst = append(dst, MaskCodecRaw)
			return append(dst, m.data...)
		}
		dst = append(dst, tmp[:k]...)
		i = j
	}
	return dst
}

// randMask builds a mask with region-like structure: runs of a single code
// with geometrically distributed lengths, occasionally a pure random stretch.
func randMask(rng *rand.Rand, n int) *Mask2 {
	m := NewMask2(n)
	i := 0
	for i < n {
		run := 1 + rng.Intn(64)
		if run > n-i {
			run = n - i
		}
		if rng.Intn(8) == 0 {
			for j := i; j < i+run; j++ {
				m.Set(j, Code(rng.Intn(4)))
			}
		} else {
			m.Fill(i, i+run, Code(rng.Intn(4)))
		}
		i += run
	}
	return m
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 63, 64, 100, 1023, 4096} {
		for trial := 0; trial < 20; trial++ {
			m := randMask(rng, n)
			packed := AppendPacked(nil, m)
			if max := PackedMaxSize(n); len(packed) > max {
				t.Fatalf("n=%d: packed %d bytes exceeds PackedMaxSize %d", n, len(packed), max)
			}
			got, err := DecodePacked(packed, n)
			if err != nil {
				t.Fatalf("n=%d: DecodePacked: %v", n, err)
			}
			if !got.Equal(m) {
				t.Fatalf("n=%d: decoded mask differs", n)
			}
			if !bytes.Equal(got.Bytes(), m.Bytes()) {
				t.Fatalf("n=%d: decoded storage differs from canonical", n)
			}
		}
	}
}

// TestAppendPackedMatchesRef: the word-at-a-time encoder emits exactly the
// bytes of the element-at-a-time reference, on region-like masks, on
// uniformly random masks (the raw fallback) and on masks of few long runs.
func TestAppendPackedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(3000)
		var m *Mask2
		switch trial % 3 {
		case 0:
			m = randMask(rng, n)
		case 1:
			m = NewMask2(n)
			for i := 0; i < n; i++ {
				m.Set(i, Code(rng.Intn(4)))
			}
		default:
			m = NewMask2(n)
			for i := 0; i < n; {
				run := min(1+rng.Intn(700), n-i)
				m.Fill(i, i+run, Code(rng.Intn(4)))
				i += run
			}
		}
		prefix := []byte{0xAB}
		got := AppendPacked(prefix, m)
		want := appendPackedRef([]byte{0xAB}, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): AppendPacked differs from the reference encoder", trial, n)
		}
	}
}

func TestPackedPreservesPrefix(t *testing.T) {
	m := randMask(rand.New(rand.NewSource(3)), 200)
	prefix := []byte("hdr")
	out := AppendPacked(append([]byte(nil), prefix...), m)
	if !bytes.Equal(out[:3], prefix) {
		t.Fatalf("AppendPacked clobbered the dst prefix")
	}
	got, err := DecodePacked(out[3:], 200)
	if err != nil || !got.Equal(m) {
		t.Fatalf("round trip after prefix: err=%v", err)
	}
}

// TestPackedWorstCaseBound: an alternating-code mask is RLE's adversarial
// input; the codec must fall back to the raw body and stay within
// PackedMaxSize.
func TestPackedWorstCaseBound(t *testing.T) {
	const n = 1024
	m := NewMask2(n)
	for i := 0; i < n; i++ {
		m.Set(i, Code(i%4))
	}
	packed := AppendPacked(nil, m)
	if packed[0] != MaskCodecRaw {
		t.Fatalf("alternating mask packed with codec %d, want raw fallback", packed[0])
	}
	if want := 1 + m.SizeBytes(); len(packed) != want {
		t.Fatalf("raw fallback is %d bytes, want %d", len(packed), want)
	}
	got, err := DecodePacked(packed, n)
	if err != nil || !got.Equal(m) {
		t.Fatalf("raw fallback round trip: err=%v", err)
	}
}

// TestPackedCompressesRuns pins the codec's purpose: a region-structured
// mask must shrink well below raw (the BENCH_maskcodec acceptance bar is
// 3x on full workloads; a single rectangular region at QVGA does far
// better).
func TestPackedCompressesRuns(t *testing.T) {
	const w, h = 320, 240
	m := NewMask2(w * h)
	for y := 60; y < 180; y++ {
		m.Fill(y*w+80, y*w+240, CodeR)
	}
	packed := AppendPacked(nil, m)
	if raw := m.SizeBytes(); len(packed)*3 > raw {
		t.Fatalf("region mask packed to %d bytes, want <= raw/3 (%d/3=%d)", len(packed), raw, raw/3)
	}
	got, err := DecodePacked(packed, w*h)
	if err != nil || !got.Equal(m) {
		t.Fatalf("region round trip: err=%v", err)
	}
}

func TestDecodePackedHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"unknown codec":      {9, 1, 2},
		"raw short":          {MaskCodecRaw, 0xFF},
		"raw long":           {MaskCodecRaw, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"rle truncated":      {MaskCodecRLE, 0x80},
		"rle overflow run":   {MaskCodecRLE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"rle run too long":   {MaskCodecRLE, byte(16<<2 | 3)},
		"rle undercoverage":  {MaskCodecRLE, byte(2<<2 | 1)},
		"rle trailing empty": {MaskCodecRLE, byte(11<<2 | 3), 0x80},
	}
	for name, data := range cases {
		if _, err := DecodePacked(data, 12); err == nil {
			t.Errorf("%s: DecodePacked accepted malformed input", name)
		}
	}
	if _, err := DecodePacked([]byte{MaskCodecRLE}, 0); err != nil {
		t.Errorf("empty RLE body for 0 elements should decode: %v", err)
	}
	if _, err := DecodePacked(nil, -1); err == nil {
		t.Errorf("negative length accepted")
	}
}

// TestDecodePackedRawCanonicalizes: a raw-codec body with garbage in the
// final byte's unused fields must decode to the canonical storage form.
func TestDecodePackedRawCanonicalizes(t *testing.T) {
	// n=6 -> 2 bytes, top field of byte 1 unused.
	body := []byte{MaskCodecRaw, 0xFF, 0xCF}
	m, err := DecodePacked(body, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Bytes()[1]; got != 0x0F {
		t.Fatalf("padding not cleared: final byte %#x, want 0x0f", got)
	}
	ref := NewMask2(6)
	ref.Fill(0, 6, CodeR)
	if !m.Equal(ref) {
		t.Fatal("decoded codes differ from all-R reference")
	}
}

// Regression (ISSUE 9 satellite): FromBytes must clear the unused
// high-order fields of the final byte. Before the fix a deserialized mask
// re-serialized to different bytes than an encoder-built one, breaking the
// differential suite's byte-identity oracle.
func TestFromBytesCanonicalizesPadding(t *testing.T) {
	buf := []byte{0xFF, 0xFF} // n=6: top field of byte 1 is padding
	m, err := FromBytes(buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewMask2(6)
	ref.Fill(0, 6, CodeR)
	if !m.Equal(ref) {
		t.Fatal("mask with dirty padding not Equal to clean all-R mask")
	}
	if !bytes.Equal(m.Bytes(), ref.Bytes()) {
		t.Fatalf("Bytes() not canonical: got %x, want %x", m.Bytes(), ref.Bytes())
	}
}

// Regression (ISSUE 9 satellite): FromBytes must trim oversized buffers to
// exactly ceil(n/4) bytes so SizeBytes/MetadataBytes do not over-report and
// Bytes() round trips do not grow.
func TestFromBytesTrimsExcess(t *testing.T) {
	buf := []byte{0x1B, 0x03, 0xAA, 0xBB, 0xCC} // n=6 needs 2 bytes
	m, err := FromBytes(buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SizeBytes(); got != 2 {
		t.Fatalf("SizeBytes = %d, want 2", got)
	}
	if got := m.Bytes(); len(got) != 2 {
		t.Fatalf("Bytes() = %d bytes, want 2", len(got))
	}
	m2, err := FromBytes(m.Bytes(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Equal(m) || m2.SizeBytes() != 2 {
		t.Fatal("Bytes() round trip changed the mask")
	}
}

// TestAllocsMaskCodec gates the pooled packed-mask path: encoding into a
// reused scratch and decoding into a reused mask must not allocate.
func TestAllocsMaskCodec(t *testing.T) {
	m := randMask(rand.New(rand.NewSource(11)), 320*240)
	scratch := make([]byte, 0, PackedMaxSize(m.Len()))
	into := NewMask2(m.Len())
	if avg := testing.AllocsPerRun(200, func() {
		scratch = AppendPacked(scratch[:0], m)
	}); avg != 0 {
		t.Errorf("AppendPacked into pooled scratch: %.1f allocs/run, want 0", avg)
	}
	scratch = AppendPacked(scratch[:0], m)
	if avg := testing.AllocsPerRun(200, func() {
		if err := DecodePackedInto(into, scratch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodePackedInto pooled mask: %.1f allocs/run, want 0", avg)
	}
	if !into.Equal(m) {
		t.Fatal("pooled round trip lost data")
	}
}
