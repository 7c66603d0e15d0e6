package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteMessage(&buf, MsgCapture, payload, 0); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	if err := WriteMessage(&buf, MsgDecode, nil, 0); err != nil {
		t.Fatalf("WriteMessage empty: %v", err)
	}
	typ, got, err := ReadMessage(&buf, 0)
	if err != nil || typ != MsgCapture || !bytes.Equal(got, payload) {
		t.Fatalf("ReadMessage = %d %v %v, want %d %v", typ, got, err, MsgCapture, payload)
	}
	typ, got, err = ReadMessage(&buf, 0)
	if err != nil || typ != MsgDecode || got != nil {
		t.Fatalf("ReadMessage empty = %d %v %v", typ, got, err)
	}
	if _, _, err := ReadMessage(&buf, 0); err != io.EOF {
		t.Fatalf("ReadMessage at end = %v, want io.EOF", err)
	}
}

func TestMessageSizeLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgCapture, make([]byte, 100), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("WriteMessage over cap = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes", buf.Len())
	}
	// A hostile length prefix must be rejected before allocation.
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr, 1<<31)
	hdr[4] = MsgCapture
	if _, _, err := ReadMessage(bytes.NewReader(hdr), 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadMessage hostile length = %v, want ErrTooLarge", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{W: 640, H: 480, Format: frame.RGB24, HistoryDepth: 6, QueueDepth: 3, Block: true, Parallelism: 4}
	b := MarshalHello(h)
	if len(b) != helloSize {
		t.Fatalf("HELLO is %d bytes, want %d", len(b), helloSize)
	}
	got, err := UnmarshalHello(b)
	if err != nil {
		t.Fatalf("UnmarshalHello: %v", err)
	}
	if got != h {
		t.Fatalf("hello round trip = %+v, want %+v", got, h)
	}
}

// TestHelloAckRoundTrip: HELLO_ACK has one 16-byte layout carrying the
// version; the retired 12-byte form, any other length and any other
// version are rejected — the 17-byte v5 form (with a codec byte) with the
// typed *VersionError.
func TestHelloAckRoundTrip(t *testing.T) {
	want := HelloAck{SessionID: 9, MaxPayload: 1 << 20}
	b := MarshalHelloAck(want)
	if len(b) != helloAckSize {
		t.Fatalf("HELLO_ACK is %d bytes, want %d", len(b), helloAckSize)
	}
	if a, err := UnmarshalHelloAck(b); err != nil || a != want {
		t.Fatalf("ack round trip = %+v %v, want %+v", a, err, want)
	}
	for _, n := range []int{12, 14} {
		if _, err := UnmarshalHelloAck(b[:n]); err == nil {
			t.Fatalf("%d-byte HELLO_ACK accepted", n)
		}
	}
	if _, err := UnmarshalHelloAck(append(b, 0)); err == nil {
		t.Fatalf("%d-byte HELLO_ACK accepted", len(b)+1)
	}
	v5 := append(append([]byte(nil), b...), 1)
	binary.LittleEndian.PutUint32(v5[12:], 5)
	if _, err := UnmarshalHelloAck(v5); !errors.As(err, new(*VersionError)) {
		t.Fatalf("v5 ack: err = %v, want *VersionError", err)
	}
	for _, v := range []uint32{2, 3, 4, 5, ProtoVersion + 1} {
		bad := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(bad[12:], v)
		var ve *VersionError
		if _, err := UnmarshalHelloAck(bad); !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d ack: err = %v, want *VersionError", v, err)
		}
	}
}

// TestHelloVersionNegotiation pins the negotiation contract: there is one
// protocol revision, so a HELLO negotiates ProtoVersion or nothing. Every
// other version — the retired revisions 2–5 included — fails with the typed
// *VersionError rather than a stringly error, whatever the payload length.
func TestHelloVersionNegotiation(t *testing.T) {
	b := MarshalHello(Hello{W: 64, H: 48, Format: frame.Gray8})
	if got, err := UnmarshalHello(b); err != nil || got.W != 64 || got.H != 48 {
		t.Fatalf("v%d HELLO = %+v %v", ProtoVersion, got, err)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != ProtoVersion {
		t.Fatalf("HELLO carries version %d, want %d", v, ProtoVersion)
	}
	for _, v := range []uint32{0, 1, 2, 3, 4, 5, ProtoVersion + 1, 0xffffffff} {
		bad := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(bad[4:], v)
		_, err := UnmarshalHello(bad)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d: err = %v, want *VersionError", v, err)
		}
	}
	// A v5 peer's HELLO ends in a codec capability byte.
	v5 := append(append([]byte(nil), b...), 1)
	binary.LittleEndian.PutUint32(v5[4:], 5)
	var ve *VersionError
	if _, err := UnmarshalHello(v5); !errors.As(err, &ve) || ve.Got != 5 {
		t.Fatalf("v5 HELLO: err = %v, want *VersionError", err)
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	b := MarshalHello(Hello{W: 64, H: 64, Format: frame.Gray8})
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic err = %v", err)
	}
	bad = append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad[4:], ProtoVersion+7)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version err = %v", err)
	}
	// A payload a byte short, or a byte long (the retired v5 layout with a
	// codec byte), is rejected even when it carries the current version.
	if _, err := UnmarshalHello(b[:helloSize-1]); err == nil {
		t.Fatal("short HELLO accepted")
	}
	if _, err := UnmarshalHello(append(b, 0)); err == nil {
		t.Fatal("HELLO with a trailing codec byte accepted")
	}
	bad = append([]byte(nil), b...)
	bad[25] = 2
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "block") {
		t.Fatalf("block byte 2 err = %v", err)
	}
	bad = append([]byte(nil), b...)
	bad[16] = byte(frame.BayerRGGB)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("bad format err = %v", err)
	}
	if _, err := UnmarshalHello(b[:10]); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := region.List{
		{X: 10, Y: 20, W: 100, H: 80, Stride: 2, Skip: 3, Phase: 1},
		{X: 0, Y: 0, W: 640, H: 480, Stride: 1, Skip: 1},
	}
	got, err := UnmarshalLabels(MarshalLabels(labels))
	if err != nil {
		t.Fatalf("UnmarshalLabels: %v", err)
	}
	if len(got) != len(labels) {
		t.Fatalf("got %d labels, want %d", len(got), len(labels))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d = %+v, want %+v", i, got[i], labels[i])
		}
	}
	if got, err := UnmarshalLabels(MarshalLabels(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty labels = %v %v", got, err)
	}
	// Count not matching payload size must fail, not over-read.
	b := MarshalLabels(labels)
	binary.LittleEndian.PutUint32(b, 99)
	if _, err := UnmarshalLabels(b); err == nil {
		t.Fatal("mismatched label count accepted")
	}
}

// TestLabelsCountOverflow is the regression test for the 32-bit length-check
// bypass: a crafted count chosen so that 4+n*labelSize wraps a 32-bit int
// back to the actual payload length would pass the framing check and reach
// the allocation with n in the hundreds of millions. The count must be
// bounded by what the payload can carry before any multiplication.
func TestLabelsCountOverflow(t *testing.T) {
	// 28*153391690+4 = 2^32+28, which truncates to 28 in a 32-bit int —
	// exactly the length of this one-label payload.
	b := MarshalLabels(region.List{{X: 1, Y: 2, W: 3, H: 4, Stride: 1, Skip: 1}})
	binary.LittleEndian.PutUint32(b, 153391690)
	if _, err := UnmarshalLabels(b); err == nil {
		t.Fatal("overflowing label count accepted")
	}
	// The same guard must catch every count the payload cannot carry, with
	// no allocation proportional to the claim.
	for _, n := range []uint32{2, 1 << 20, 0xffffffff} {
		binary.LittleEndian.PutUint32(b, n)
		if _, err := UnmarshalLabels(b); err == nil {
			t.Fatalf("count %d accepted for a one-label payload", n)
		}
	}
}

func TestFramePayloadSize(t *testing.T) {
	if got := FramePayloadSize(16, 8, frame.Gray8); got != 9+16*8 {
		t.Fatalf("FramePayloadSize(16,8,Gray8) = %d", got)
	}
	// The 32k×32k RGB24 worst case must not overflow: 3 GiB and change.
	if got := FramePayloadSize(1<<15, 1<<15, frame.RGB24); got != 9+3*(1<<30) {
		t.Fatalf("FramePayloadSize(32k,32k,RGB24) = %d", got)
	}
}

func TestCaptureAckRoundTrip(t *testing.T) {
	a := CaptureAck{FrameIndex: 41, EncodedPixels: 12345, EncodedBytes: 54321, PixelFraction: 0.375}
	got, err := UnmarshalCaptureAck(MarshalCaptureAck(a))
	if err != nil || got != a {
		t.Fatalf("capture ack round trip = %+v %v, want %+v", got, err, a)
	}
}

func TestWindowRoundTrip(t *testing.T) {
	w := Window{X: 3, Y: 7, W: 64, H: 32}
	got, err := UnmarshalWindow(MarshalWindow(w))
	if err != nil || got != w {
		t.Fatalf("window round trip = %+v %v, want %+v", got, err, w)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	fr := frame.New(16, 8, frame.RGB24)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i * 7)
	}
	got, err := UnmarshalFrame(MarshalFrame(fr))
	if err != nil {
		t.Fatalf("UnmarshalFrame: %v", err)
	}
	if !got.Equal(fr) {
		t.Fatal("frame round trip mismatch")
	}
	// Pixel count must match header geometry.
	b := MarshalFrame(fr)
	if _, err := UnmarshalFrame(b[:len(b)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re, err := UnmarshalError(MarshalError(CodeBacklog, "queue full"))
	if err != nil {
		t.Fatalf("UnmarshalError: %v", err)
	}
	if re.Code != CodeBacklog || re.Message != "queue full" {
		t.Fatalf("remote error = %+v", re)
	}
	if !strings.Contains(re.Error(), "queue full") {
		t.Fatalf("Error() = %q", re.Error())
	}
	if _, err := UnmarshalError([]byte{1}); err == nil {
		t.Fatal("short error payload accepted")
	}
}
