package sensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// Reference oracles: the original bit-serial CRC and per-pixel capture,
// kept only to pin the production paths bit for bit.

// crc16CSIBitSerial is the bit-at-a-time CSI-2 payload CRC.
func crc16CSIBitSerial(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0x8408
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

// bayerChannel returns 0 for red, 1 for green, 2 for blue sites in an RGGB
// tiling.
func bayerChannel(x, y int) int {
	switch {
	case y%2 == 0 && x%2 == 0:
		return 0 // R
	case y%2 == 1 && x%2 == 1:
		return 2 // B
	default:
		return 1 // G
	}
}

// captureReference is Capture addressed through Frame.Pixel and Frame.Gray,
// drawing noise from s in the same raster order.
func captureReference(s *Sensor, scene *frame.Frame) *frame.Frame {
	out := frame.New(s.cfg.W, s.cfg.H, frame.BayerRGGB)
	for y := 0; y < s.cfg.H; y++ {
		for x := 0; x < s.cfg.W; x++ {
			var v float64
			switch scene.Format {
			case frame.RGB24:
				v = float64(scene.Pixel(x, y)[bayerChannel(x, y)])
			default:
				v = float64(scene.Gray(x, y))
			}
			v = v*s.cfg.AnalogGain + s.rng.NormFloat64()*s.cfg.ReadNoiseSigma
			out.Pix[y*s.cfg.W+x] = clamp255(v)
		}
	}
	s.framesCaptured++
	return out
}

func TestCRC16MatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1920, 5760}
	for i := 0; i < 64; i++ {
		lengths = append(lengths, rng.Intn(4096))
	}
	for _, n := range lengths {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := crc16CSI(data), crc16CSIBitSerial(data); got != want {
			t.Fatalf("len %d: crc16CSI = %#04x, bit-serial %#04x", n, got, want)
		}
		p := Packet{Kind: PacketLine, PayloadBytes: n, Checksum: crc16CSI(data)}
		if err := VerifyPacket(p, data); err != nil {
			t.Fatalf("len %d: clean payload rejected: %v", n, err)
		}
		if n == 0 {
			continue
		}
		// Any single-bit error is caught by a CRC-16.
		bad := append([]byte(nil), data...)
		bad[rng.Intn(n)] ^= 1 << rng.Intn(8)
		if err := VerifyPacket(p, bad); err == nil {
			t.Fatalf("len %d: corrupted payload passed", n)
		}
	}
}

func TestCaptureMatchesReference(t *testing.T) {
	sizes := [][2]int{{2, 2}, {6, 4}, {160, 120}, {1920, 1080}}
	formats := []frame.Format{frame.RGB24, frame.Gray8, frame.YUV444, frame.BayerRGGB}
	configs := []Config{
		{FPS: 30},
		{FPS: 30, AnalogGain: 1.7, ReadNoiseSigma: 2.5, Seed: 5},
		{FPS: 30, AnalogGain: 0.6, ReadNoiseSigma: 40, Seed: 9}, // clamps at both ends
	}
	rng := rand.New(rand.NewSource(3))
	for _, sz := range sizes {
		for _, f := range formats {
			for ci, cfg := range configs {
				if sz[0] == 1920 && ci != 1 {
					continue // one full-size pass per format keeps -race runs short
				}
				cfg.W, cfg.H = sz[0], sz[1]
				scene := frame.New(cfg.W, cfg.H, f)
				rng.Read(scene.Pix)
				got, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := New(cfg)
				tag := fmt.Sprintf("%dx%d %v cfg %d", cfg.W, cfg.H, f, ci)
				// Two frames: the second starts from the advanced noise stream.
				for i := 0; i < 2; i++ {
					fr, err := got.Capture(scene)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if want := captureReference(ref, scene); !fr.Equal(want) {
						t.Fatalf("%s frame %d: Capture differs from the per-pixel reference", tag, i)
					}
				}
			}
		}
	}
}
