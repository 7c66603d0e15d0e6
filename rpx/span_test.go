package rpx

import (
	"testing"

	"repro/internal/obs"
)

// TestCaptureSpans is the regression for the mislabelled capture span: the
// label commit at the frame boundary and the encoder (RoI selection,
// classification and packing) each get their own span, recorded in
// pipeline order per frame.
func TestCaptureSpans(t *testing.T) {
	const w, h, frames = 320, 240, 5
	sys, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFrameTracer(64)
	sys.SetTracer(tr, 7)
	labels := append([]RegionLabel{FullFrame(w, h)}, ownershipLabels()...)
	if err := sys.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	fr := ownershipFrame(w, h, 1)
	var sizes []int
	for i := 0; i < frames; i++ {
		cs, err := sys.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, cs.EncodedBytes)
	}

	spans := tr.Snapshot()
	want := []string{obs.SpanCommit, obs.SpanEncode, obs.SpanPush}
	if len(spans) != frames*len(want) {
		t.Fatalf("%d spans for %d frames, want %d", len(spans), frames, frames*len(want))
	}
	cheaperCommits := 0
	for i := 0; i < frames; i++ {
		got := spans[i*len(want) : (i+1)*len(want)]
		for k, sp := range got {
			if sp.Op != want[k] || sp.Frame != i || sp.Session != 7 {
				t.Fatalf("frame %d span %d = %+v, want op %q", i, k, sp, want[k])
			}
			if k > 0 && sp.Start < got[k-1].Start {
				t.Fatalf("frame %d: %s starts before %s", i, sp.Op, got[k-1].Op)
			}
		}
		commit, encode, push := got[0], got[1], got[2]
		if commit.Bytes != 0 || push.Bytes != 0 || encode.Bytes != sizes[i] {
			t.Fatalf("frame %d bytes: commit %d encode %d push %d, want 0/%d/0",
				i, commit.Bytes, encode.Bytes, push.Bytes, sizes[i])
		}
		if i > 0 && commit.Dur < encode.Dur {
			cheaperCommits++
		}
	}
	// After frame 0 no label write is pending, so the commit is a bare
	// boundary check while encode classifies and packs 76,800 pixels.
	// A majority vote keeps a preempted span from failing the test.
	if cheaperCommits < (frames-1)/2+1 {
		t.Fatalf("commit outlasted encode on %d of %d frames: the commit span covers encoder work",
			frames-1-cheaperCommits, frames-1)
	}

	// An encode that fails leaves only the commit span behind.
	before := len(tr.Snapshot())
	if _, err := sys.Capture(NewFrame(w/2, h, Gray8)); err == nil {
		t.Fatal("mis-sized frame captured")
	}
	after := tr.Snapshot()
	if len(after) != before+1 || after[len(after)-1].Op != obs.SpanCommit {
		t.Fatalf("failed encode recorded %v", after[before:])
	}
}
