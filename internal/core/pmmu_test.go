package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

func pmmuFixture(t *testing.T) (*EncodedFrame, *PMMU) {
	t.Helper()
	const w, h = 16, 8
	fr := testFrame(w, h, frame.Gray8, 70)
	e := NewEncoder(w, h, frame.Gray8)
	// Region covering columns 4..11 of rows 2..5 at full density.
	if err := e.SetRegionLabels(region.List{{X: 4, Y: 2, W: 8, H: 4, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	return ef, NewPMMU([]*EncodedFrame{ef}, 0x1000)
}

func TestPMMUOutOfFrameBypass(t *testing.T) {
	_, p := pmmuFixture(t)
	// Below the framebuffer base: bypass.
	subs, pixel, err := p.TranslateAddr(0x500, 4)
	if err != nil || pixel || subs != nil {
		t.Errorf("below-base access: subs=%v pixel=%v err=%v, want bypass", subs, pixel, err)
	}
	// Beyond the framebuffer end (16*8 bytes at base 0x1000): bypass.
	if _, pixel, _ := p.TranslateAddr(0x1000+16*8, 4); pixel {
		t.Error("past-end access treated as pixel transaction")
	}
	// Straddling the end: bypass.
	if _, pixel, _ := p.TranslateAddr(0x1000+16*8-2, 4); pixel {
		t.Error("straddling access treated as pixel transaction")
	}
	if p.Stats().Bypassed != 3 {
		t.Errorf("Bypassed = %d, want 3", p.Stats().Bypassed)
	}
}

func TestPMMUPixelTransaction(t *testing.T) {
	ef, p := pmmuFixture(t)
	// Row 3, columns 4..11 — the full regional span.
	addr := uint64(0x1000 + 3*16 + 4)
	subs, pixel, err := p.TranslateAddr(addr, 8)
	if err != nil || !pixel {
		t.Fatalf("pixel transaction failed: pixel=%v err=%v", pixel, err)
	}
	if len(subs) != 1 {
		t.Fatalf("got %d sub-requests, want 1 merged run: %+v", len(subs), subs)
	}
	s := subs[0]
	if s.Code != bitpack.CodeR || s.Source != 0 || s.Count != 8 || s.X != 4 || s.Y != 3 {
		t.Errorf("sub-request = %+v", s)
	}
	// EncIndex should be row 3's offset (row 2 contributed 8 pixels).
	if s.EncIndex != int(ef.RowOffsets[3]) {
		t.Errorf("EncIndex = %d, want %d", s.EncIndex, ef.RowOffsets[3])
	}
}

func TestPMMUMixedRun(t *testing.T) {
	_, p := pmmuFixture(t)
	// Row 3, columns 0..16: N(0..4) R(4..12) N(12..16) → 3 sub-requests.
	subs, err := p.AppendRow(nil, 3, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("got %d sub-requests: %+v", len(subs), subs)
	}
	if subs[0].Code != bitpack.CodeN || subs[0].Count != 4 ||
		subs[1].Code != bitpack.CodeR || subs[1].Count != 8 ||
		subs[2].Code != bitpack.CodeN || subs[2].Count != 4 {
		t.Errorf("sub-requests = %+v", subs)
	}
}

func TestPMMUErrors(t *testing.T) {
	_, p := pmmuFixture(t)
	if _, _, err := p.TranslateAddr(0x1000+3*16+14, 4); err == nil {
		t.Error("row-crossing transaction accepted")
	}
	if _, err := p.AppendRow(nil, 99, 0, 4); err == nil {
		t.Error("bad row accepted")
	}
	if _, err := p.AppendRow(nil, 0, 8, 4); err == nil {
		t.Error("inverted run accepted")
	}
	// Misalignment only possible with bpp > 1.
	fr := testFrame(8, 4, frame.RGB24, 71)
	e := NewEncoder(8, 4, frame.RGB24)
	if err := e.SetRegionLabels(region.List{region.FullFrame(8, 4)}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	p3 := NewPMMU([]*EncodedFrame{ef}, 0)
	if _, _, err := p3.TranslateAddr(1, 3); err == nil {
		t.Error("misaligned RGB transaction accepted")
	}
}

func TestPMMUSkResolution(t *testing.T) {
	const w, h = 8, 4
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 8, H: 4, Stride: 1, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	fr0 := testFrame(w, h, frame.Gray8, 72)
	ef0 := mustEncode(t, e, fr0, 0) // active
	ef1 := mustEncode(t, e, fr0, 1) // skipped
	p := NewPMMU([]*EncodedFrame{ef1, ef0}, 0)
	subs, err := p.AppendRow(nil, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("got %d sub-requests: %+v", len(subs), subs)
	}
	if subs[0].Code != bitpack.CodeSk || subs[0].Source != 1 || subs[0].Count != 8 {
		t.Errorf("Sk sub-request = %+v, want source=1 count=8", subs[0])
	}
	if subs[0].EncIndex != int(ef0.RowOffsets[1]) {
		t.Errorf("EncIndex = %d, want row-1 offset %d", subs[0].EncIndex, ef0.RowOffsets[1])
	}
}

func TestPMMUSkResolvesToStInHistory(t *testing.T) {
	// Region with stride 2 and skip 2: on the skipped frame, a pixel that
	// was St in the hosting frame resolves to a hold, not a fetch.
	const w, h = 8, 4
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 8, H: 4, Stride: 2, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	fr := testFrame(w, h, frame.Gray8, 73)
	ef0 := mustEncode(t, e, fr, 0)
	ef1 := mustEncode(t, e, fr, 1)
	p := NewPMMU([]*EncodedFrame{ef1, ef0}, 0)
	subs, err := p.AppendRow(nil, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0: Sk→R(history). Column 1: Sk→St(history)→hold. Etc.
	var kinds []bitpack.Code
	for _, s := range subs {
		for i := 0; i < s.Count; i++ {
			kinds = append(kinds, s.Code)
		}
	}
	want := []bitpack.Code{bitpack.CodeSk, bitpack.CodeSt, bitpack.CodeSk, bitpack.CodeSt}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("column %d resolution = %v, want %v (all: %v)", i, kinds[i], k, kinds)
		}
	}
}

func TestPMMUInFrameOverflow(t *testing.T) {
	_, p := pmmuFixture(t) // 16x8 Gray8 framebuffer at base 0x1000
	// Adversarial address near the top of the address space: addr+length
	// wraps to a tiny value, which the pre-fix check accepted as in-frame.
	addr := ^uint64(0) - 2
	if p.InFrame(addr, 4) {
		t.Error("wrapping addr+length accepted as in-frame")
	}
	subs, pixel, err := p.TranslateAddr(addr, 4)
	if err != nil || pixel || subs != nil {
		t.Errorf("wrapping transaction: subs=%v pixel=%v err=%v, want clean bypass", subs, pixel, err)
	}
	if got := p.Stats().Bypassed; got != 1 {
		t.Errorf("Bypassed = %d, want 1", got)
	}
	// A length that wraps on its own from a valid in-frame address.
	if p.InFrame(0x1000, 1<<40) {
		t.Error("oversized length accepted as in-frame")
	}
	if p.InFrame(0x1000, -1) {
		t.Error("negative length accepted as in-frame")
	}
	// Sanity: legitimate bounds still pass.
	if !p.InFrame(0x1000, 16*8) || !p.InFrame(0x1000+16*8-4, 4) {
		t.Error("valid in-frame transactions rejected")
	}
}

// metaFixture builds a two-frame history (both frames fully captured inside
// the region, columns 4..11 of rows 2..5) so metadata accounting can be
// pinned exactly.
func metaFixture(t *testing.T) *PMMU {
	t.Helper()
	const w, h = 16, 8
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 4, Y: 2, W: 8, H: 4, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	fr := testFrame(w, h, frame.Gray8, 74)
	ef0 := mustEncode(t, e, fr, 0)
	ef1 := mustEncode(t, e, fr, 1)
	return NewPMMU([]*EncodedFrame{ef1, ef0}, 0)
}

// TestPMMUMetadataAccountingLazy pins the exact MetadataBitsRead charge for
// a run of R pixels with a nonzero column origin: 2 bits per examined
// code, plus one 2*x0-bit prefix scan for the newest frame
// the first time its R-count cursor is consulted. The history frame is
// never consulted (no Sk pixel), so it must charge nothing — the pre-fix
// eager cursor init charged 2*x0 bits per history frame per row regardless.
func TestPMMUMetadataAccountingLazy(t *testing.T) {
	p := metaFixture(t)
	// Row 3, columns [4,12): R R R R | R R R R, both groups byte-aligned.
	subs, err := p.AppendRow(nil, 3, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Count != 8 {
		t.Fatalf("sub-requests = %+v, want one merged run of 8", subs)
	}
	// 8 codes x 2 bits + frame-0 prefix scan of 2*4 bits = 24.
	if got := p.Stats().MetadataBitsRead; got != 24 {
		t.Errorf("MetadataBitsRead = %d, want exactly 24", got)
	}
}

// TestPMMUMetadataAccountingNoFetch pins the charge for a run that fetches
// nothing: only the examined codes are charged, and no R-count cursor (not
// even the newest frame's) performs its prefix scan.
func TestPMMUMetadataAccountingNoFetch(t *testing.T) {
	p := metaFixture(t)
	// Row 0 is outside the region: columns [4,8) are one N N N N group.
	subs, err := p.AppendRow(nil, 0, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Code != bitpack.CodeN {
		t.Fatalf("sub-requests = %+v, want one N run", subs)
	}
	if got := p.Stats().MetadataBitsRead; got != 8 {
		t.Errorf("MetadataBitsRead = %d, want exactly 8 (no cursor prefix scans)", got)
	}
}

// TestPMMUMetadataAccountingSk pins the charge when an Sk pixel consults
// history: the hosting frame's cursor pays its prefix scan once, and
// unconsulted deeper frames pay nothing.
func TestPMMUMetadataAccountingSk(t *testing.T) {
	const w, h = 8, 4
	e := NewEncoder(w, h, frame.Gray8)
	// Full-frame region, skip 2: frame 0 captures, frame 1 skips.
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 8, H: 4, Stride: 1, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	fr := testFrame(w, h, frame.Gray8, 75)
	ef0 := mustEncode(t, e, fr, 0) // active: all R
	ef1 := mustEncode(t, e, fr, 1) // skipped: all Sk
	p := NewPMMU([]*EncodedFrame{ef1, ef0}, 0)
	// Row 1, columns [2,4): two Sk pixels (not byte-aligned at x=2), each
	// charging 2 bits (own code) + 2 bits (frame-1 history probe); frame 1's
	// cursor prefix scan charges 2*x0 = 4 bits once.
	subs, err := p.AppendRow(nil, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Code != bitpack.CodeSk || subs[0].Source != 1 {
		t.Fatalf("sub-requests = %+v, want one Sk run from frame 1", subs)
	}
	if got := p.Stats().MetadataBitsRead; got != 2*2+2*2+4 {
		t.Errorf("MetadataBitsRead = %d, want exactly 12", got)
	}
}

func TestPMMUStats(t *testing.T) {
	_, p := pmmuFixture(t)
	if _, err := p.AppendRow(nil, 3, 0, 16); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.SubRequests != 3 {
		t.Errorf("SubRequests = %d, want 3", s.SubRequests)
	}
	if s.MetadataBitsRead < 32 { // at least 2 bits per examined pixel
		t.Errorf("MetadataBitsRead = %d, want >= 32", s.MetadataBitsRead)
	}
}

// The run-length translator is checked against the per-pixel translator it
// replaced, kept here only as a reference oracle.

// translateRowReference translates [x0, x1) of row y pixel by pixel against
// p's history, merging each pixel into the previous sub-request when the two
// are contiguous, and charges p's stats exactly as AppendRow must.
func translateRowReference(p *PMMU, y, x0, x1 int) ([]SubRequest, error) {
	f := p.newest()
	if y < 0 || y >= f.H || x0 < 0 || x1 > f.W || x0 >= x1 {
		return nil, fmt.Errorf("core: run [%d,%d) of row %d outside %dx%d frame", x0, x1, y, f.W, f.H)
	}
	base := y * f.W
	nf := len(p.history)
	rCount := make([]int, nf)
	at := make([]int, nf)
	for i := range at {
		at[i] = -1
	}
	advance := func(i, x int) int { // R count before column x in frame i
		hf := p.history[i]
		if at[i] < 0 {
			rCount[i] = hf.Mask.CountRRange(base, base+x0)
			at[i] = x0
			p.stats.MetadataBitsRead += 2 * x0
		}
		if x > at[i] {
			rCount[i] += hf.Mask.CountRRange(base+at[i], base+x)
			at[i] = x
		}
		return rCount[i]
	}
	var subs []SubRequest
	emit := func(s SubRequest) {
		if n := len(subs); n > 0 {
			prev := &subs[n-1]
			if prev.Code == s.Code && prev.Source == s.Source && prev.Y == s.Y &&
				prev.X+prev.Count == s.X &&
				(s.Source == SourceNone || prev.EncIndex+prev.Count == s.EncIndex) {
				prev.Count += s.Count
				return
			}
		}
		subs = append(subs, s)
		p.stats.SubRequests++
	}
	for x := x0; x < x1; x++ {
		p.stats.MetadataBitsRead += 2
		switch f.Mask.Get(base + x) {
		case bitpack.CodeR:
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeR, Source: 0, EncIndex: int(f.RowOffsets[y]) + advance(0, x)})
		case bitpack.CodeSt:
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSt, Source: SourceNone})
		case bitpack.CodeSk:
			resolved := false
			for i := 1; i < nf && !resolved; i++ {
				hf := p.history[i]
				p.stats.MetadataBitsRead += 2
				switch hf.Mask.Get(base + x) {
				case bitpack.CodeR:
					emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSk, Source: i, EncIndex: int(hf.RowOffsets[y]) + advance(i, x)})
					resolved = true
				case bitpack.CodeSt:
					emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSt, Source: SourceNone})
					resolved = true
				}
			}
			if !resolved {
				emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeN, Source: SourceNone})
			}
		default:
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeN, Source: SourceNone})
		}
	}
	return subs, nil
}

// encodeHistory encodes one w×h Gray8 frame per label set, frame k with
// sets[k] at index firstFrame+k, and returns them newest first, as a PMMU
// or Decoder history holds them.
func encodeHistory(tb testing.TB, rng *rand.Rand, sets []region.List, w, h, firstFrame int) []*EncodedFrame {
	tb.Helper()
	enc := NewEncoder(w, h, frame.Gray8)
	hist := make([]*EncodedFrame, len(sets))
	for k, labels := range sets {
		if err := enc.SetRegionLabels(labels); err != nil {
			tb.Fatal(err)
		}
		ef, err := enc.EncodeFrame(genFrame(rng, w, h, frame.Gray8), firstFrame+k)
		if err != nil {
			tb.Fatal(err)
		}
		hist[len(sets)-1-k] = ef
	}
	return hist
}

// driftingLabels returns n label sets drawn with gen, where each set after
// the first is a fresh draw half the time and its predecessor otherwise, so
// history frames disagree about which pixels are regional.
func driftingLabels(rng *rand.Rand, n int, gen func() region.List) []region.List {
	sets := []region.List{gen()}
	for len(sets) < n {
		next := sets[len(sets)-1]
		if rng.Intn(2) == 0 {
			next = gen()
		}
		sets = append(sets, next)
	}
	return sets
}

// TestAppendRowMatchesReference compares AppendRow with the per-pixel
// oracle sub-request for sub-request and counter for counter, over random
// labels (strides 1-8, skips with phase, changing between frames), widths
// mostly not multiples of four, history depths 1-5, aligned and unaligned
// runs, and a dst slice that is reused and already holds a contiguous run of
// the same row.
func TestAppendRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa99e))
	var dst []SubRequest
	for trial := 0; trial < 200; trial++ {
		w, h := 1+rng.Intn(140), 1+rng.Intn(24)
		depth := 1 + rng.Intn(5)
		labels := driftingLabels(rng, depth, func() region.List { return fuzzLabels(rng, w, h) })
		hist := encodeHistory(t, rng, labels, w, h, rng.Intn(8))
		got, want := NewPMMU(hist, 0), NewPMMU(hist, 0)
		for k := 0; k < 40; k++ {
			y := rng.Intn(h)
			x0, x1 := 0, w
			switch rng.Intn(3) {
			case 1: // byte-aligned within the row
				x0 = rng.Intn(w) &^ 3
				x1 = x0 + 1 + rng.Intn(w-x0)
			case 2: // arbitrary
				x0 = rng.Intn(w)
				x1 = x0 + 1 + rng.Intn(w-x0)
			}
			tag := fmt.Sprintf("trial %d (%dx%d depth %d labels %v) row %d [%d,%d)", trial, w, h, depth, labels, y, x0, x1)
			// Half the time dst already ends with the row's run just left
			// of x0, which AppendRow must not merge into.
			var err error
			dst = dst[:0]
			if x0 > 0 && rng.Intn(2) == 0 {
				if dst, err = got.AppendRow(dst, y, rng.Intn(x0), x0); err != nil {
					t.Fatal(err)
				}
				want.stats = got.stats
			}
			ref, err := translateRowReference(want, y, x0, x1)
			if err != nil {
				t.Fatal(err)
			}
			before := len(dst)
			dst, err = got.AppendRow(dst, y, x0, x1)
			if err != nil {
				t.Fatal(err)
			}
			appended := dst[before:]
			if len(appended) != len(ref) {
				t.Fatalf("%s: %d sub-requests, reference %d:\n got %+v\nwant %+v", tag, len(appended), len(ref), appended, ref)
			}
			for i := range ref {
				if appended[i] != ref[i] {
					t.Fatalf("%s: sub-request %d = %+v, reference %+v", tag, i, appended[i], ref[i])
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%s: stats %+v, reference %+v", tag, got.Stats(), want.Stats())
			}
		}
	}
}
