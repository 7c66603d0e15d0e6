package sensor

import "fmt"

// Packet-level MIPI CSI-2 model. The byte-level CSILink suffices for energy
// accounting; this layer adds the protocol structure — frame-start/end
// short packets, per-line long packets with header, ECC, and checksum — so
// link overhead and error behaviour can be studied, and so the future-work
// "encoder inside the camera" analysis can count real packet savings.

// CSI-2 packet framing constants.
const (
	// ShortPacketBytes is the size of FS/FE/LS/LE short packets: 4 bytes
	// (data ID, 16-bit data field, ECC).
	ShortPacketBytes = 4
	// LongPacketHeaderBytes is the packet header: data ID, 16-bit word
	// count, ECC.
	LongPacketHeaderBytes = 4
	// LongPacketFooterBytes is the 16-bit payload checksum.
	LongPacketFooterBytes = 2
)

// PacketKind enumerates the modeled CSI-2 packet types.
type PacketKind uint8

// Packet kinds.
const (
	PacketFrameStart PacketKind = iota
	PacketFrameEnd
	PacketLine
)

// String names the packet kind.
func (k PacketKind) String() string {
	switch k {
	case PacketFrameStart:
		return "FS"
	case PacketFrameEnd:
		return "FE"
	case PacketLine:
		return "LINE"
	}
	return fmt.Sprintf("PacketKind(%d)", uint8(k))
}

// Packet is one transmitted CSI-2 packet.
type Packet struct {
	Kind PacketKind
	// PayloadBytes is the pixel payload of line packets (0 for short
	// packets).
	PayloadBytes int
	// Checksum is the CRC-16 of the payload for line packets.
	Checksum uint16
}

// WireBytes returns the packet's total size on the wire.
func (p Packet) WireBytes() int {
	if p.Kind != PacketLine {
		return ShortPacketBytes
	}
	return LongPacketHeaderBytes + p.PayloadBytes + LongPacketFooterBytes
}

// crc16Table is the byte-at-a-time table for the reflected CCITT
// polynomial 0x8408: entry b is the CRC register after shifting byte b
// through eight bit-serial steps from zero.
var crc16Table = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0x8408
			} else {
				crc >>= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// crc16CSI computes the CRC-16 used by CSI-2 payload checksums
// (polynomial x^16 + x^12 + x^5 + 1, CCITT, reflected, init 0xFFFF), one
// table lookup per byte.
func crc16CSI(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc>>8 ^ crc16Table[byte(crc)^b]
	}
	return crc
}

// FrameTransfer summarizes one frame's transit over the link.
type FrameTransfer struct {
	Packets       int
	PayloadBytes  int
	OverheadBytes int
	// Seconds is the transfer time at the link's configured bandwidth.
	Seconds float64
}

// TotalBytes returns payload plus protocol overhead.
func (ft FrameTransfer) TotalBytes() int { return ft.PayloadBytes + ft.OverheadBytes }

// OverheadFraction returns protocol overhead / total.
func (ft FrameTransfer) OverheadFraction() float64 {
	t := ft.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(ft.OverheadBytes) / float64(t)
}

// TransferFrame models a full raster frame crossing the link as CSI-2
// packets: FS, one line packet per row, FE. The line payload checksum is
// computed over the actual pixel bytes, exercising the same data the
// encoder will consume. Accumulates into the link's byte counter.
func (l *CSILink) TransferFrame(lines [][]byte) (FrameTransfer, []Packet) {
	packets := make([]Packet, 0, len(lines)+2)
	packets = append(packets, Packet{Kind: PacketFrameStart})
	var ft FrameTransfer
	for _, line := range lines {
		p := Packet{Kind: PacketLine, PayloadBytes: len(line), Checksum: crc16CSI(line)}
		packets = append(packets, p)
		ft.PayloadBytes += len(line)
	}
	packets = append(packets, Packet{Kind: PacketFrameEnd})
	for _, p := range packets {
		ft.OverheadBytes += p.WireBytes() - p.PayloadBytes
	}
	ft.Packets = len(packets)
	// Raw wire bytes; Transfer applies the configured bandwidth (its
	// PacketOverhead models lane/protocol costs below this layer, so pass
	// the structural bytes through directly).
	ft.Seconds = float64(ft.TotalBytes()) / l.Bandwidth()
	l.bytesTransferred += int64(ft.TotalBytes())
	return ft, packets
}

// VerifyPacket recomputes a line packet's checksum against a received
// payload, reporting corruption as the receiver would.
func VerifyPacket(p Packet, payload []byte) error {
	if p.Kind != PacketLine {
		return nil
	}
	if len(payload) != p.PayloadBytes {
		return fmt.Errorf("sensor: payload is %d bytes, packet declares %d", len(payload), p.PayloadBytes)
	}
	if got := crc16CSI(payload); got != p.Checksum {
		return fmt.Errorf("sensor: payload CRC %#04x != packet CRC %#04x", got, p.Checksum)
	}
	return nil
}
