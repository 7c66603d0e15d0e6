package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/region"
	"repro/rpx"
	"repro/rpx/client"
)

// rpcConfig sizes rpc-qvga: one request/reply session through rpxgw with
// the packed mask codec, decoding locally, with label writes every Every
// frames.
type rpcConfig struct {
	W, H      int
	Scenes    int
	Shape     labelShape
	LabelSets int
	Every     int
	DetFrames int

	// Inject, when non-nil, is an extra label write before frame InjectAt;
	// the failure-accounting test uses it for an over-capacity list.
	Inject   region.List
	InjectAt int
}

func defaultRPC() rpcConfig {
	return rpcConfig{W: 160, H: 120, Scenes: 32, Shape: qvgaShape, LabelSets: 64, Every: 4, DetFrames: 256}
}

// labelWrite is one label workload written to a session, and its fate.
type labelWrite struct {
	at     int // frames captured (or, streaming, received) when it was written
	labels region.List
	ok     bool
	acked  bool
	bound  int // first frame index captured under it
}

// rpcLeg is one session's closed loop. Legs differ only in address and
// tracing: the untraced gateway leg gives the end-to-end metrics, the
// traced gateway and direct legs the ledger.
type rpcLeg struct {
	cfg    *rpcConfig
	scenes []*frame.Frame
	labels []region.List
	sess   *client.Session
	dec    *core.Decoder
	tr     *tracer

	next   int // frames attempted
	frames []rpcFrame
	writes []labelWrite

	m        meter
	lat      []float64
	fail     failures
	tally    labelTally
	blockMed []float64 // per-block median Capture round trip, traced legs
}

// rpcFrame is one captured frame: its input and what the session returned.
type rpcFrame struct {
	scene int
	stats rpx.CaptureStats
	hash  uint64
	ok    bool // decoded; false after a read or decode error
}

func newRPCLeg(cfg *rpcConfig, scenes []*frame.Frame, labels []region.List, addr string, tr *tracer) (*rpcLeg, error) {
	sess, err := client.Dial(addr, client.Config{W: cfg.W, H: cfg.H, Format: rpx.Gray8, Block: true, PackedMask: true})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &rpcLeg{
		cfg: cfg, scenes: scenes, labels: labels, sess: sess, tr: tr,
		dec: core.NewDecoder(cfg.W, cfg.H, rpx.Gray8),
	}, nil
}

func (g *rpcLeg) runFor(d time.Duration) error {
	l := g.tr.lane(laneMain)
	from := len(l.spansOf("client.capture_rpc"))
	g.m.start()
	frames := 0
	split := time.Now()
	for stop := time.Now().Add(d); time.Now().Before(stop); frames++ {
		if err := g.step(l); err != nil {
			g.m.stop(frames)
			return err
		}
		if time.Since(split) >= blockLen {
			g.m.split(frames + 1)
			frames, split = -1, time.Now()
		}
	}
	g.m.stop(frames)
	if l != nil {
		g.blockMed = append(g.blockMed, quantile(durationsMs(l.spansOf("client.capture_rpc")[from:]), 0.5))
	}
	return nil
}

func (g *rpcLeg) write(l *lane, ls region.List) {
	sp := l.begin("client.set_labels", g.next)
	err := g.sess.SetRegionLabels(ls)
	l.end(sp)
	g.tally.written++
	g.tally.labels += len(ls)
	if err != nil {
		g.tally.rejected++
	} else {
		g.tally.lags = append(g.tally.lags, 1) // applies at the very next capture
	}
	g.writes = append(g.writes, labelWrite{at: len(g.frames), labels: ls, ok: err == nil})
}

func (g *rpcLeg) step(l *lane) error {
	i := g.next
	g.next++
	if g.sess.Broken() {
		g.fail.opErrors++
		return nil
	}
	t0 := time.Now()
	root := l.begin("frame", i)
	defer l.end(root)
	if i%g.cfg.Every == 0 {
		g.write(l, g.labels[(i/g.cfg.Every)%len(g.labels)])
	}
	if g.cfg.Inject != nil && i == g.cfg.InjectAt {
		g.write(l, g.cfg.Inject)
	}
	scene := i % len(g.scenes)
	sp := l.begin("client.capture_rpc", i)
	cs, err := g.sess.Capture(g.scenes[scene])
	l.end(sp)
	if err != nil {
		g.fail.opErrors++
		return nil
	}
	f := rpcFrame{scene: scene, stats: cs}
	sp = l.begin("client.get_encoded", i)
	ef, err := g.sess.LastEncoded()
	l.end(sp)
	if err == nil {
		sp = l.begin("core.decoder_push", i)
		err = g.dec.Push(ef)
		l.end(sp)
	}
	var img *frame.Frame
	if err == nil {
		sp = l.begin("core.decode_frame", i)
		img, err = g.dec.DecodeFrame()
		l.end(sp)
	}
	if err == nil {
		sp = l.begin("bench.hash", i)
		f.hash, f.ok = hashPix(img.Pix), true
		l.end(sp)
		g.lat = append(g.lat, ms(time.Since(t0)))
	} else {
		g.fail.opErrors++
	}
	g.frames = append(g.frames, f)
	return nil
}

// verify replays the leg's inputs and label writes through an in-process
// rpx.System and counts every decoded frame that differs. It also takes
// the deterministic metrics over the first DetFrames frames.
func (g *rpcLeg) verify(q *quality, probe *decodeProbe) error {
	ref, err := rpx.NewSystem(g.cfg.W, g.cfg.H, rpx.Gray8)
	if err != nil {
		return err
	}
	var scratch []byte
	w := 0
	for k, f := range g.frames {
		for ; w < len(g.writes) && g.writes[w].at == k; w++ {
			if err := ref.SetRegionLabels(g.writes[w].labels); (err == nil) != g.writes[w].ok {
				g.fail.mismatch++
			}
		}
		cs, err := ref.Capture(g.scenes[f.scene])
		if err != nil {
			return err
		}
		img, err := ref.Decoded()
		if err != nil {
			return err
		}
		if f.ok && (cs != f.stats || hashPix(img.Pix) != f.hash) {
			g.fail.mismatch++
		}
		if q != nil && k < g.cfg.DetFrames {
			ef := ref.BorrowLastEncoded()
			scratch = ef.AppendPacked(scratch[:0])
			q.addFrame(len(scratch), cs.PixelFraction, img.Pix, g.scenes[f.scene].Pix)
			if err := probe.add(ef); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeProbe re-decodes the oracle's frames through a standalone
// core.Decoder on one goroutine, where allocation counts are exact.
type decodeProbe struct {
	dec    *core.Decoder
	allocs uint64
	frames int
}

func newDecodeProbe(w, h int) *decodeProbe {
	return &decodeProbe{dec: core.NewDecoder(w, h, rpx.Gray8)}
}

func (p *decodeProbe) add(ef *core.EncodedFrame) error {
	own := ef.Clone()
	var err error
	p.allocs += allocsOf(func() {
		if err = p.dec.Push(own); err == nil {
			_, err = p.dec.DecodeFrame()
		}
	})
	p.frames++
	return err
}

func (p *decodeProbe) put(out metricSet) {
	n := float64(max(p.frames, 1))
	ds := p.dec.Stats()
	out.put("core.decode_allocs_per_frame", "count", float64(p.allocs)/n)
	out.put("core.subrequests_per_frame", "count", float64(ds.SubRequests)/n)
	out.put("core.metadata_bits_per_frame", "bit", float64(ds.MetadataBitsRead)/n)
}

// rpcRun is one set-up of rpc-qvga: the stack, the inputs and the legs.
type rpcRun struct {
	st   *stack
	legs []*rpcLeg // [gateway untraced, gateway traced, direct traced]
}

func (r *rpcRun) close() {
	for _, g := range r.legs {
		g.sess.Close()
	}
	r.st.close()
}

func newRPCRun(cfg *rpcConfig, seed int64, traced bool) (*rpcRun, error) {
	scenes := renderScenes(cfg.W, cfg.H, cfg.Scenes, seed)
	labels := labelSets(cfg.W, cfg.H, cfg.LabelSets, cfg.Shape, seed+2)
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	r := &rpcRun{st: st}
	addrs, tracers := []string{st.rpxgw}, []*tracer{nil}
	if traced {
		addrs = append(addrs, st.rpxgw, st.rpxd)
		tracers = append(tracers, newTracer(), newTracer())
	}
	for i, addr := range addrs {
		g, err := newRPCLeg(cfg, scenes, labels, addr, tracers[i])
		if err != nil {
			r.close()
			return nil, err
		}
		r.legs = append(r.legs, g)
	}
	return r, nil
}

func runRPC(cfg rpcConfig, seed int64, total time.Duration, traced bool) (workloadResult, error) {
	r, setupS, err := timeSetup(func() (*rpcRun, error) { return newRPCRun(&cfg, seed, traced) }, (*rpcRun).close)
	if err != nil {
		return workloadResult{}, err
	}
	defer r.close()
	var res workloadResult
	main := r.legs[0]
	runs := make([]func(time.Duration) error, len(r.legs))
	for i, g := range r.legs {
		runs[i] = g.runFor
	}
	peak, err := drive(total, traced, runs...)
	if err != nil {
		return res, err
	}
	capMs, dropped, backlog, err := serverCapture(main.sess)
	if err != nil {
		return res, err
	}
	var q quality
	probe := newDecodeProbe(cfg.W, cfg.H)
	for i, g := range r.legs {
		var qp *quality
		if i == 0 {
			qp = &q
		}
		if err := g.verify(qp, probe); err != nil {
			return res, err
		}
		res.attempted += g.next
		res.failures.add(g.fail)
	}
	res.labels = main.tally
	if !traced {
		res.metrics = endToEnd(setupS, &main.m, main.lat, peak, &q, main.tally.lags)
		return res, nil
	}
	gw, direct := r.legs[1], r.legs[2]
	l := gw.tr.lane(laneMain)
	spans := l.stats()
	out := metricSet{}
	rpcMs := spans["client.capture_rpc"].meanMs()
	out.put("client.capture_rpc_ms", "ms", rpcMs)
	out.put("server.capture_ms", "ms", capMs)
	out.put("client.transport_ms", "ms", rpcMs-capMs)
	out.put("client.get_encoded_ms", "ms", spans["client.get_encoded"].meanMs())
	out.put("client.set_labels_ms", "ms", spans["client.set_labels"].meanMs())
	out.put("core.decoder_push_ms", "ms", spans["core.decoder_push"].meanMs())
	out.put("core.decode_frame_ms", "ms", spans["core.decode_frame"].meanMs())
	probe.put(out)
	putRelay(out, gw.blockMed, direct.blockMed)
	out.put("server.stream_dropped", "count", float64(dropped))
	out.put("server.backlog_rejects", "count", float64(backlog))
	out.put("trace.overhead_pct", "%", overheadPct(main.m.fps(), gw.m.fps()))
	out.put("ledger.coverage", "ratio", coverage(spans, gw.lat))
	res.metrics = out
	res.trace = gw.tr
	return res, nil
}
