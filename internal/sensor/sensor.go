// Package sensor simulates a mobile-class image sensor and its camera
// serial interface: the substrate that stands in for the Sony IMX274 + MIPI
// CSI-2 front end of the paper's FPGA platform (Table 2).
//
// The simulation covers what the rhythmic pixel system actually depends on:
// a Bayer color filter array sampled from an RGB scene, photon/read noise,
// strictly raster-scan line-by-line readout, and a lane-serialized CSI link
// whose transferred-byte count feeds the energy model.
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/frame"
)

// Config describes the simulated sensor.
type Config struct {
	W, H int
	// FPS is the sensor frame rate.
	FPS float64
	// ReadNoiseSigma is the standard deviation of additive Gaussian read
	// noise in 8-bit code units (typical mobile sensors: 1-3).
	ReadNoiseSigma float64
	// AnalogGain scales the signal before quantization (1.0 = unity).
	AnalogGain float64
	// Seed makes the noise deterministic for reproducible experiments.
	Seed int64
}

// Sensor converts RGB scene frames into noisy Bayer mosaics and streams
// them out in raster order.
type Sensor struct {
	cfg Config
	rng *rand.Rand

	framesCaptured int
}

// New returns a sensor. Zero-valued gain defaults to unity.
func New(cfg Config) (*Sensor, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("sensor: invalid dimensions %dx%d", cfg.W, cfg.H)
	}
	if cfg.W%2 != 0 || cfg.H%2 != 0 {
		return nil, fmt.Errorf("sensor: Bayer mosaic requires even dimensions, got %dx%d", cfg.W, cfg.H)
	}
	if cfg.FPS <= 0 {
		return nil, fmt.Errorf("sensor: invalid frame rate %v", cfg.FPS)
	}
	if cfg.AnalogGain == 0 {
		cfg.AnalogGain = 1
	}
	if cfg.AnalogGain < 0 || cfg.ReadNoiseSigma < 0 {
		return nil, fmt.Errorf("sensor: negative gain or noise")
	}
	return &Sensor{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the sensor configuration.
func (s *Sensor) Config() Config { return s.cfg }

// FramesCaptured returns the number of Capture calls.
func (s *Sensor) FramesCaptured() int { return s.framesCaptured }

// Capture samples an RGB (or grayscale, treated as neutral) scene into a
// BayerRGGB mosaic with gain and read noise applied. The scene must match
// the sensor dimensions.
func (s *Sensor) Capture(scene *frame.Frame) (*frame.Frame, error) {
	if scene.W != s.cfg.W || scene.H != s.cfg.H {
		return nil, fmt.Errorf("sensor: scene is %dx%d, sensor is %dx%d", scene.W, scene.H, s.cfg.W, s.cfg.H)
	}
	w, bpp := s.cfg.W, scene.BytesPerPixel()
	gain, sigma := s.cfg.AnalogGain, s.cfg.ReadNoiseSigma
	out := frame.New(w, s.cfg.H, frame.BayerRGGB)
	for y := 0; y < s.cfg.H; y++ {
		src := scene.Pix[y*w*bpp : (y+1)*w*bpp]
		dst := out.Pix[y*w : (y+1)*w]
		// Channel sampled at even and odd columns: RGGB puts R,G on even
		// rows and G,B on odd rows; single-channel scenes (and the Y of
		// YUV444) read byte 0 of every pixel.
		c0, c1 := 0, 0
		if scene.Format == frame.RGB24 {
			c0 = y & 1
			c1 = c0 + 1
		}
		// Width is even (New rejects odd mosaics), so columns pair up;
		// noise is drawn in raster order.
		for x := 0; x < w; x += 2 {
			dst[x] = clamp255(float64(src[x*bpp+c0])*gain + s.rng.NormFloat64()*sigma)
			dst[x+1] = clamp255(float64(src[(x+1)*bpp+c1])*gain + s.rng.NormFloat64()*sigma)
		}
	}
	s.framesCaptured++
	return out, nil
}

// Stream delivers a captured frame line by line in raster order, the only
// readout pattern conventional sensors provide — the property the rhythmic
// encoder's streaming design exploits.
func (s *Sensor) Stream(fr *frame.Frame, emit func(y int, line []byte)) {
	stride := fr.Stride()
	for y := 0; y < fr.H; y++ {
		emit(y, fr.Pix[y*stride:(y+1)*stride])
	}
}

func clamp255(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// CSILink models a MIPI CSI-2 style serial camera link: a fixed number of
// lanes at a per-lane bit rate, counting transferred bytes for the energy
// model and checking real-time feasibility.
type CSILink struct {
	Lanes       int
	GbpsPerLane float64
	// PacketOverhead is the fractional protocol overhead (headers, ECC,
	// line start/end short packets); CSI-2 is typically a few percent.
	PacketOverhead float64

	bytesTransferred int64
}

// NewCSILink returns a 4-lane link at 1.5 Gbps/lane with 5% overhead — the
// class of link a 4K60 mobile sensor uses.
func NewCSILink() *CSILink { return &CSILink{Lanes: 4, GbpsPerLane: 1.5, PacketOverhead: 0.05} }

// Bandwidth returns usable link bandwidth in bytes per second.
func (l *CSILink) Bandwidth() float64 {
	return float64(l.Lanes) * l.GbpsPerLane * 1e9 / 8 * (1 - l.PacketOverhead)
}

// Transfer records a frame's transit and returns the transfer time in
// seconds.
func (l *CSILink) Transfer(bytes int) float64 {
	if bytes < 0 {
		panic("sensor: negative transfer")
	}
	l.bytesTransferred += int64(bytes)
	return float64(bytes) / l.Bandwidth()
}

// BytesTransferred returns the cumulative traffic over the link.
func (l *CSILink) BytesTransferred() int64 { return l.bytesTransferred }

// SupportsRate reports whether a w x h stream of bpp-byte pixels at fps fits
// the link.
func (l *CSILink) SupportsRate(w, h, bpp int, fps float64) bool {
	need := float64(w) * float64(h) * float64(bpp) * fps
	return need <= l.Bandwidth()
}

// ExposureSeries returns per-frame exposure scale factors simulating a
// slow sinusoidal auto-exposure hunt, used by failure-injection tests to
// check policy robustness under illumination variation.
func ExposureSeries(frames int, amplitude float64) []float64 {
	out := make([]float64, frames)
	for i := range out {
		out[i] = 1 + amplitude*math.Sin(2*math.Pi*float64(i)/60)
	}
	return out
}
