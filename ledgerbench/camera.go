package main

import (
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/internal/isp"
	"repro/internal/region"
	"repro/internal/sensor"
	"repro/rpx"
)

// cameraConfig sizes camera-1080p: the paper's front end in-process, from
// sensor to tiled window decode, on one goroutine and no network.
type cameraConfig struct {
	W, H      int
	Scenes    int // pre-rendered scenes, replayed in a loop
	Shape     labelShape
	LabelSets int // seeded label sets, replaced every CL frames
	CL        int
	Tile      int // decode window side
	Tiles     int // windows decoded per frame
	DetFrames int // prefix over which the deterministic metrics are taken (fewer if the run is shorter)
}

func defaultCamera() cameraConfig {
	return cameraConfig{
		W: 1920, H: 1080, Scenes: 12, Shape: vslamShape, LabelSets: 6, CL: 10,
		Tile: 256, Tiles: 4, DetFrames: 16,
	}
}

// camera is one set-up of the workload. The timed path is sensor → CSI →
// ISP → rpx.System.Capture → DecodeWindow tiles; after each frame, with
// the clock stopped, an independent in-process rpx.System (the oracle) is
// fed the same ISP output and labels and must decode identical tiles.
type camera struct {
	cfg    cameraConfig
	scenes []*frame.Frame
	labels []region.List
	tiles  [][2]int

	sen  *sensor.Sensor
	link *sensor.CSILink
	isp  *isp.Pipeline
	sys  *rpx.System
	ref  *rpx.System

	lines   [][]byte
	hashes  []uint64
	scratch []byte
	next    int

	// Accounting, split by whether the frame was traced.
	meters   [2]meter
	lat      [2][]float64
	csiBytes int
	ispAlloc uint64
	encAlloc uint64
	fail     failures
	tally    labelTally
	q        quality
	det      detCounts
}

// detCounts are the core counters over the deterministic prefix.
type detCounts struct {
	paintOps, roiCompares, subRequests, metadataBits int
}

func newCamera(cfg cameraConfig, seed int64) (*camera, error) {
	sen, err := sensor.New(sensor.Config{W: cfg.W, H: cfg.H, FPS: 30, ReadNoiseSigma: 1.5, Seed: seed})
	if err != nil {
		return nil, err
	}
	sys, err := rpx.NewSystem(cfg.W, cfg.H, rpx.Gray8)
	if err != nil {
		return nil, err
	}
	ref, err := rpx.NewSystem(cfg.W, cfg.H, rpx.Gray8)
	if err != nil {
		return nil, err
	}
	return &camera{
		cfg:    cfg,
		scenes: renderScenes(cfg.W, cfg.H, cfg.Scenes, seed),
		labels: labelSets(cfg.W, cfg.H, cfg.LabelSets, cfg.Shape, seed+2),
		tiles:  tilePositions(cfg.W, cfg.H, cfg.Tile, 97, seed+3),
		sen:    sen, link: sensor.NewCSILink(), isp: isp.NewPipeline(),
		sys: sys, ref: ref,
		hashes: make([]uint64, cfg.Tiles),
	}, nil
}

// runFor captures frames until d of timed work has passed.
func (c *camera) runFor(d time.Duration, tr *tracer) error {
	mode := 0
	if tr != nil {
		mode = 1
	}
	m := &c.meters[mode]
	stopAt := m.wall + d
	for m.wall < stopAt {
		if err := c.step(tr, m, mode); err != nil {
			return err
		}
	}
	return nil
}

// step runs one timed frame, then checks it against the oracle untimed.
func (c *camera) step(tr *tracer, m *meter, mode int) error {
	i := c.next
	c.next++
	l := tr.lane(laneMain)
	scene := c.scenes[i%len(c.scenes)]
	var labels region.List
	if i%c.cfg.CL == 0 {
		labels = c.labels[(i/c.cfg.CL)%len(c.labels)]
	}

	m.start()
	t0 := time.Now()
	root := l.begin("frame", i)
	var labelErr error
	if labels != nil {
		sp := l.begin("rpx.set_labels", i)
		labelErr = c.sys.SetRegionLabels(labels)
		l.end(sp)
	}
	sp := l.begin("sensor.capture", i)
	bayer, err := c.sen.Capture(scene)
	l.end(sp)
	if err != nil {
		return fmt.Errorf("sensor capture: %w", err)
	}
	sp = l.begin("sensor.csi", i)
	c.lines = c.lines[:0]
	c.sen.Stream(bayer, func(_ int, line []byte) { c.lines = append(c.lines, line) })
	ft, _ := c.link.TransferFrame(c.lines)
	l.end(sp)
	var processed *frame.Frame
	process := func() { processed, err = c.isp.Process(bayer) }
	sp = l.begin("isp.process", i)
	if tr != nil {
		c.ispAlloc += allocsOf(process)
	} else {
		process()
	}
	l.end(sp)
	if err != nil {
		return fmt.Errorf("isp: %w", err)
	}
	var cs rpx.CaptureStats
	capture := func() { cs, err = c.sys.Capture(processed) }
	sp = l.begin("core.capture", i)
	if tr != nil {
		c.encAlloc += allocsOf(capture)
	} else {
		capture()
	}
	l.end(sp)
	if err != nil {
		l.end(root)
		m.stop(1)
		c.fail.opErrors++
		return nil
	}
	decodeErr := false
	for j := range c.hashes {
		x, y := c.tilePos(i, j)
		sp = l.begin("core.decode_window", i)
		tile, err := c.sys.DecodeWindow(x, y, c.cfg.Tile, c.cfg.Tile)
		l.end(sp)
		if err != nil {
			decodeErr = true
			break
		}
		sp = l.begin("bench.hash", i)
		c.hashes[j] = hashPix(tile.Pix)
		l.end(sp)
	}
	l.end(root)
	c.lat[mode] = append(c.lat[mode], ms(time.Since(t0)))
	m.stop(1)

	c.csiBytes += ft.TotalBytes()
	if decodeErr {
		c.fail.opErrors++
	}
	if labels != nil {
		c.tally.written++
		c.tally.labels += len(labels)
		if labelErr != nil {
			c.tally.rejected++
		} else {
			c.tally.lags = append(c.tally.lags, 1) // applies at the very next capture
		}
	}
	if tr != nil {
		ef := c.sys.BorrowLastEncoded()
		off := tr.lane(laneOffPath)
		sp = off.begin("wire.append", i)
		c.scratch = ef.AppendTo(c.scratch[:0])
		off.end(sp)
		sp = off.begin("wire.append_packed", i)
		c.scratch = ef.AppendPacked(c.scratch[:0])
		off.end(sp)
	}
	if !decodeErr && !c.oracle(i, labels, labelErr, processed, cs) {
		c.fail.mismatch++
	}
	return nil
}

func (c *camera) tilePos(i, j int) (int, int) {
	p := c.tiles[(i*c.cfg.Tiles+j)%len(c.tiles)]
	return p[0], p[1]
}

// oracle replays frame i through the reference System and reports whether
// every output matches. Over the first DetFrames frames it also takes the
// deterministic metrics: sizes, PSNR of the full decoded frame against the
// ISP output, and the core counters of the capture and the tile decodes.
func (c *camera) oracle(i int, labels region.List, labelErr error, processed *frame.Frame, cs rpx.CaptureStats) bool {
	if labels != nil {
		if err := c.ref.SetRegionLabels(labels); (err == nil) != (labelErr == nil) {
			return false
		}
	}
	es0, ds0 := c.ref.EncoderStats(), c.ref.DecoderStats()
	refCS, err := c.ref.Capture(processed)
	if err != nil || refCS != cs {
		return false
	}
	ok := true
	for j, h := range c.hashes {
		x, y := c.tilePos(i, j)
		tile, err := c.ref.DecodeWindow(x, y, c.cfg.Tile, c.cfg.Tile)
		if err != nil || hashPix(tile.Pix) != h {
			ok = false
		}
	}
	if i >= c.cfg.DetFrames {
		return ok
	}
	es, ds := c.ref.EncoderStats(), c.ref.DecoderStats()
	c.det.paintOps += es.RegionPaintOps - es0.RegionPaintOps
	c.det.roiCompares += es.RoISelectorCompares - es0.RoISelectorCompares
	c.det.subRequests += ds.SubRequests - ds0.SubRequests
	c.det.metadataBits += ds.MetadataBitsRead - ds0.MetadataBitsRead
	full, err := c.ref.Decoded()
	if err != nil {
		return false
	}
	c.q.addFrame(c.ref.BorrowLastEncoded().EncodedSize(), refCS.PixelFraction, full.Pix, processed.Pix)
	return ok
}

// runCamera runs camera-1080p for the given time and reports its metrics.
func runCamera(cfg cameraConfig, seed int64, total time.Duration, traced bool) (workloadResult, error) {
	c, setupS, err := timeSetup(func() (*camera, error) { return newCamera(cfg, seed) }, func(*camera) {})
	if err != nil {
		return workloadResult{}, err
	}
	var res workloadResult
	tr := newTracer()
	peak, err := drive(total, traced,
		func(d time.Duration) error { return c.runFor(d, nil) },
		func(d time.Duration) error { return c.runFor(d, tr) })
	if err != nil {
		return res, err
	}
	if traced {
		res.metrics, res.trace = c.layers(tr), tr
	} else {
		res.metrics = endToEnd(setupS, &c.meters[0], c.lat[0], peak, &c.q, c.tally.lags)
	}
	res.attempted = c.next
	res.failures = c.fail
	res.labels = c.tally
	return res, nil
}

// layers computes camera-1080p's per-layer metrics from the traced frames.
func (c *camera) layers(tr *tracer) metricSet {
	main, off := tr.lane(laneMain).stats(), tr.lane(laneOffPath).stats()
	traced := &c.meters[1]
	out := metricSet{}
	out.put("sensor.capture_ms", "ms", main["sensor.capture"].meanMs())
	out.put("sensor.csi_ms", "ms", main["sensor.csi"].meanMs())
	out.put("sensor.csi_bytes_per_frame", "B", float64(c.csiBytes)/float64(c.next))
	out.put("isp.process_ms", "ms", main["isp.process"].meanMs())
	out.put("isp.allocs_per_frame", "count", traced.perFrame(float64(c.ispAlloc)))
	out.put("rpx.set_labels_ms", "ms", main["rpx.set_labels"].meanMs())
	out.put("core.capture_ms", "ms", main["core.capture"].meanMs())
	out.put("core.encode_allocs_per_frame", "count", traced.perFrame(float64(c.encAlloc)))
	n := float64(max(c.q.frames, 1))
	out.put("core.paint_ops_per_frame", "count", float64(c.det.paintOps)/n)
	out.put("core.roi_compares_per_frame", "count", float64(c.det.roiCompares)/n)
	out.put("core.subrequests_per_frame", "count", float64(c.det.subRequests)/n)
	out.put("core.metadata_bits_per_frame", "bit", float64(c.det.metadataBits)/n)
	out.put("core.decode_window_ms", "ms", main["core.decode_window"].meanMs())
	out.put("wire.append_ms", "ms", off["wire.append"].meanMs())
	out.put("wire.append_packed_ms", "ms", off["wire.append_packed"].meanMs())
	out.put("trace.overhead_pct", "%", overheadPct(c.meters[0].fps(), traced.fps()))
	out.put("ledger.coverage", "ratio", coverage(main, c.lat[1]))
	return out
}
