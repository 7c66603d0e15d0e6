package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/policy"
	"repro/internal/policyloop"
	"repro/rpx"
	"repro/rpx/client"
)

// pushConfig sizes push-1080p: a producer session pushing frames through
// rpxgw to rpxd, and a subscriber running the rpxpolicy loop body.
type pushConfig struct {
	W, H        int
	Scenes      int
	CL          int // frames per policy cycle
	Credit      int // subscription credit window (0 = frames drop)
	Batch       int
	RecvTimeout time.Duration
	DetFrames   int // prefix re-decoded for the decoder's allocation counts
}

func defaultPush() pushConfig {
	return pushConfig{
		W: 1920, H: 1080, Scenes: 12, CL: policyloop.DefaultCycleLength,
		Credit: policyloop.DefaultCredit, Batch: policyloop.DefaultBatch,
		RecvTimeout: 10 * time.Second, DetFrames: 64,
	}
}

// inFlight bounds the frames captured but not yet decoded, below any
// credit window, so a missing frame is the stack's failure and not the
// generator's.
const inFlight = 2

// pushLeg is one producer/subscriber pair. The producer goroutine captures
// and the consumer goroutine receives, decodes and steers.
type pushLeg struct {
	cfg    *pushConfig
	scenes []*frame.Frame
	prod   *client.Session
	sub    *client.Session
	st     *client.Stream
	tr     *tracer

	dec       *core.Decoder
	motion    *policy.MotionMap
	pol       policy.Policy
	prev, cur *frame.Frame
	cycle     int
	pushes    int
	granted   int // frames consumed since the last credit grant
	dead      bool

	next    int // frames captured (producer)
	capFail int // failed captures (producer)
	expect  int // next sequence number the consumer expects
	starts  lockedRing
	mu      sync.Mutex  // guards frames, which both goroutines touch
	frames  []pushFrame // by sequence number
	writes  []labelWrite
	ackIdx  int // oldest write whose LABELS_APPLIED is outstanding

	m        meter
	done     atomic.Int64 // frames decoded, read by the producer's meter
	lat      []float64
	fail     failures
	tally    labelTally
	blockMed []float64
}

type pushFrame struct {
	scene   int
	stats   rpx.CaptureStats // from the producer's Capture
	pushed  rpx.CaptureStats // carried by the stream frame
	hash    uint64
	decoded bool
}

func newPushLeg(cfg *pushConfig, scenes []*frame.Frame, addr string, tr *tracer) (*pushLeg, error) {
	prod, err := client.Dial(addr, client.Config{W: cfg.W, H: cfg.H, Format: rpx.Gray8, Block: true})
	if err != nil {
		return nil, fmt.Errorf("dial producer %s: %w", addr, err)
	}
	g := &pushLeg{cfg: cfg, scenes: scenes, prod: prod, tr: tr}
	if err := prod.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(cfg.W, cfg.H)}); err != nil {
		g.close()
		return nil, err
	}
	// Dialled the way rpxpolicy dials: v5 label feedback, raw container.
	g.sub, err = client.Dial(addr, client.Config{
		W: 8, H: 8, Format: rpx.Gray8, LabelFeedback: true, RequestTimeout: cfg.RecvTimeout,
	})
	if err != nil {
		g.close()
		return nil, fmt.Errorf("dial subscriber %s: %w", addr, err)
	}
	g.st, err = g.sub.Subscribe(client.SubscribeOptions{Target: prod.ID(), Credit: cfg.Credit, Batch: cfg.Batch})
	if err != nil {
		g.close()
		return nil, err
	}
	g.st.OnLabelsApplied(g.applied)
	g.dec = core.NewDecoder(cfg.W, cfg.H, rpx.Gray8)
	g.motion = policy.NewMotionMap(cfg.W, cfg.H, 0) // the default motion tile
	g.pol, err = policy.Build("motion-skip", cfg.W, cfg.H, cfg.CL)
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *pushLeg) close() {
	if g.sub != nil {
		g.sub.Close()
	}
	g.prod.Close()
}

// applied receives each LABELS_APPLIED, in write order, from inside Recv.
func (g *pushLeg) applied(la client.LabelsApplied) {
	if g.ackIdx >= len(g.writes) {
		return
	}
	w := &g.writes[g.ackIdx]
	g.ackIdx++
	w.acked = true
	if la.Err != nil {
		g.tally.rejected++
		return
	}
	w.ok, w.bound = true, int(la.AppliedSeq)
	g.tally.lags = append(g.tally.lags, float64(w.bound-w.at))
}

// runFor runs the closed loop for d: the producer keeps at most inFlight
// frames undecoded, the consumer releases a slot per frame it finishes.
func (g *pushLeg) runFor(d time.Duration) error {
	cl := g.tr.lane(laneConsume)
	from := len(g.tr.lane(laneMain).spansOf("client.capture_rpc"))
	slots := make(chan struct{}, inFlight)
	captured := make(chan int, inFlight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := range captured {
			g.consume(cl, seq)
			<-slots
		}
	}()
	g.m.start()
	counted, split := g.done.Load(), time.Now()
	for stop := time.Now().Add(d); time.Now().Before(stop); {
		slots <- struct{}{}
		if !g.produce() {
			<-slots
			break
		}
		captured <- g.next - 1
		if time.Since(split) >= blockLen {
			done := g.done.Load()
			g.m.split(int(done - counted))
			counted, split = done, time.Now()
		}
	}
	close(captured)
	wg.Wait()
	g.m.stop(int(g.done.Load() - counted))
	if l := g.tr.lane(laneMain); l != nil {
		g.blockMed = append(g.blockMed, quantile(durationsMs(l.spansOf("client.capture_rpc")[from:]), 0.5))
	}
	return nil
}

// produce captures the next frame; false means the producer cannot go on.
func (g *pushLeg) produce() bool {
	l := g.tr.lane(laneMain)
	i := g.next
	scene := i % len(g.scenes)
	g.starts.put(i, time.Now())
	sp := l.begin("client.capture_rpc", i)
	cs, err := g.prod.Capture(g.scenes[scene])
	l.end(sp)
	if err != nil || cs.FrameIndex != i {
		g.capFail++
		return false
	}
	g.next++
	g.mu.Lock()
	f := g.frameLocked(i)
	f.scene, f.stats = scene, cs
	g.mu.Unlock()
	return true
}

// decoded records what the consumer received and decoded for frame i. A
// frame can reach the subscriber before its Capture call returns.
func (g *pushLeg) decoded(i int, pushed rpx.CaptureStats, hash uint64) {
	g.mu.Lock()
	f := g.frameLocked(i)
	f.pushed, f.hash, f.decoded = pushed, hash, true
	g.mu.Unlock()
}

func (g *pushLeg) frameLocked(i int) *pushFrame {
	for len(g.frames) <= i {
		g.frames = append(g.frames, pushFrame{})
	}
	return &g.frames[i]
}

// consume receives, decodes and hashes frame seq, then runs the policy
// cycle every CL frames. Frames skipped by the stream count as dropped.
func (g *pushLeg) consume(l *lane, seq int) {
	if seq < g.expect {
		return // already counted as dropped behind a later frame
	}
	if g.dead {
		g.fail.dropped++
		g.expect = seq + 1
		return
	}
	sp := l.begin("client.recv_wait", seq)
	f, err := g.st.Recv()
	l.end(sp)
	if err != nil {
		g.dead = true
		g.fail.opErrors++
		g.expect = seq + 1
		return
	}
	got := int(f.Seq)
	if got < g.expect || got > seq+inFlight {
		g.dead = true
		g.fail.opErrors++
		return
	}
	g.fail.dropped += got - g.expect
	g.expect = got + 1
	g.granted++
	if replenish := max(1, g.cfg.Credit/2); g.granted >= replenish {
		if err := g.st.Grant(g.granted); err != nil {
			g.dead = true
		}
		g.granted = 0
	}
	sp = l.begin("client.unpack", got)
	ef, err := f.Decode()
	l.end(sp)
	if err == nil {
		sp = l.begin("core.decoder_push", got)
		err = g.dec.Push(ef)
		l.end(sp)
	}
	var img *frame.Frame
	if err == nil {
		sp = l.begin("core.decode_frame", got)
		img, err = g.dec.DecodeFrame()
		l.end(sp)
	}
	if err != nil {
		g.fail.opErrors++
		return
	}
	sp = l.begin("bench.hash", got)
	g.decoded(got, f.Stats, hashPix(img.Pix))
	l.end(sp)
	g.lat = append(g.lat, ms(time.Since(g.starts.get(got))))
	g.done.Add(1)
	g.prev, g.cur = g.cur, img
	if g.cycle++; g.cycle >= g.cfg.CL {
		g.cycle = 0
		g.steer(l, got)
	}
}

// steer is one rpxpolicy cycle: motion map, policy decision, label push.
func (g *pushLeg) steer(l *lane, seq int) {
	var fb policy.Feedback
	if g.prev != nil {
		sp := l.begin("policy.motion", seq)
		err := g.motion.Update(g.prev, g.cur)
		l.end(sp)
		if err != nil {
			g.fail.opErrors++
			return
		}
		fb.Motion = g.motion
	}
	sp := l.begin("policy.decide", seq)
	g.pol.Observe(fb)
	labels := g.pol.Labels(g.pushes).Clone()
	l.end(sp)
	g.pushes++
	sp = l.begin("client.set_labels", seq)
	err := g.st.SetLabels(labels)
	l.end(sp)
	if err != nil {
		g.dead = true
		g.fail.opErrors++
		return
	}
	g.tally.written++
	g.tally.labels += len(labels)
	g.writes = append(g.writes, labelWrite{at: seq, labels: labels})
}

// settle keeps single frames moving, untimed, until every label write has
// its LABELS_APPLIED, so the replay knows every boundary.
func (g *pushLeg) settle() {
	tr := g.tr
	g.tr = nil // settling frames stay out of the ledger
	defer func() { g.tr = tr }()
	for tries := 0; g.ackIdx < len(g.writes) && !g.dead && tries < 64; tries++ {
		if !g.produce() {
			return
		}
		g.consume(nil, g.next-1)
	}
	g.fail.opErrors += len(g.writes) - g.ackIdx
}

// verify replays the captured inputs through an in-process rpx.System that
// switches labels at exactly the acknowledged boundaries.
func (g *pushLeg) verify(q *quality, probe *decodeProbe) error {
	ref, err := rpx.NewSystem(g.cfg.W, g.cfg.H, rpx.Gray8)
	if err != nil {
		return err
	}
	if err := ref.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(g.cfg.W, g.cfg.H)}); err != nil {
		return err
	}
	var applied []labelWrite
	for _, w := range g.writes {
		if !w.acked {
			continue
		}
		if !w.ok {
			// A refused workload must be refused by the reference too; a
			// refusal changes no state, so where it lands does not matter.
			if ref.SetRegionLabels(w.labels) == nil {
				g.fail.mismatch++
			}
			continue
		}
		applied = append(applied, w)
	}
	a := 0
	for k := 0; k < g.next; k++ {
		for ; a < len(applied) && applied[a].bound <= k; a++ {
			if err := ref.SetRegionLabels(applied[a].labels); err != nil {
				g.fail.mismatch++
			}
		}
		f := g.frames[k]
		cs, err := ref.Capture(g.scenes[f.scene])
		if err != nil {
			return err
		}
		if !f.decoded {
			continue // never received or decoded: already counted as failed
		}
		img, err := ref.Decoded()
		if err != nil {
			return err
		}
		if cs != f.stats || cs != f.pushed || hashPix(img.Pix) != f.hash {
			g.fail.mismatch++
		}
		if q == nil {
			continue
		}
		// Label boundaries depend on timing here, so the quality metrics
		// take every frame rather than a prefix that may or may not hold
		// one of the rare accepted motion-skip workloads.
		ef := ref.BorrowLastEncoded()
		q.addFrame(ef.EncodedSize(), cs.PixelFraction, img.Pix, g.scenes[f.scene].Pix)
		if k < g.cfg.DetFrames {
			if err := probe.add(ef); err != nil {
				return err
			}
		}
	}
	for ; a < len(applied); a++ {
		if applied[a].bound > g.next {
			g.fail.mismatch++ // a boundary beyond the next frame to capture
		}
	}
	return nil
}

type pushRun struct {
	st   *stack
	legs []*pushLeg
}

func (r *pushRun) close() {
	for _, g := range r.legs {
		g.close()
	}
	r.st.close()
}

func newPushRun(cfg *pushConfig, seed int64, traced bool) (*pushRun, error) {
	scenes := renderScenes(cfg.W, cfg.H, cfg.Scenes, seed)
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	r := &pushRun{st: st}
	addrs, tracers := []string{st.rpxgw}, []*tracer{nil}
	if traced {
		addrs = append(addrs, st.rpxgw, st.rpxd)
		tracers = append(tracers, newTracer(), newTracer())
	}
	for i, addr := range addrs {
		g, err := newPushLeg(cfg, scenes, addr, tracers[i])
		if err != nil {
			r.close()
			return nil, err
		}
		r.legs = append(r.legs, g)
	}
	return r, nil
}

func runPush(cfg pushConfig, seed int64, total time.Duration, traced bool) (workloadResult, error) {
	r, setupS, err := timeSetup(func() (*pushRun, error) { return newPushRun(&cfg, seed, traced) }, (*pushRun).close)
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
	var q quality
	probe := newDecodeProbe(cfg.W, cfg.H)
	for i, g := range r.legs {
		g.settle()
		var qp *quality
		if i == 0 {
			qp = &q
		}
		if err := g.verify(qp, probe); err != nil {
			return res, err
		}
		res.attempted += g.next + g.capFail
		g.fail.opErrors += g.capFail
		res.failures.add(g.fail)
	}
	capMs, dropped, backlog, err := serverCapture(main.prod)
	if err != nil {
		return res, err
	}
	res.labels = main.tally
	if !traced {
		res.metrics = endToEnd(setupS, &main.m, main.lat, peak, &q, main.tally.lags)
		return res, nil
	}
	gw, direct := r.legs[1], r.legs[2]
	pl, cl := gw.tr.lane(laneMain).stats(), gw.tr.lane(laneConsume).stats()
	out := metricSet{}
	rpcMs := pl["client.capture_rpc"].meanMs()
	out.put("client.capture_rpc_ms", "ms", rpcMs)
	out.put("server.capture_ms", "ms", capMs)
	out.put("client.transport_ms", "ms", rpcMs-capMs)
	out.put("client.recv_wait_ms", "ms", cl["client.recv_wait"].meanMs())
	out.put("client.unpack_ms", "ms", cl["client.unpack"].meanMs())
	out.put("client.set_labels_ms", "ms", cl["client.set_labels"].meanMs())
	out.put("core.decoder_push_ms", "ms", cl["core.decoder_push"].meanMs())
	out.put("core.decode_frame_ms", "ms", cl["core.decode_frame"].meanMs())
	probe.put(out)
	out.put("policy.motion_ms", "ms", cl["policy.motion"].meanMs())
	out.put("policy.decide_ms", "ms", cl["policy.decide"].meanMs())
	all := labelTally{}
	for _, g := range r.legs {
		all.written += g.tally.written
		all.rejected += g.tally.rejected
		all.labels += g.tally.labels
	}
	out.put("policy.labels_per_push", "count", float64(all.labels)/float64(max(all.written, 1)))
	out.put("policy.labels_rejected_ratio", "ratio", float64(all.rejected)/float64(max(all.written, 1)))
	putRelay(out, gw.blockMed, direct.blockMed)
	out.put("server.stream_dropped", "count", float64(dropped))
	out.put("server.backlog_rejects", "count", float64(backlog))
	out.put("trace.overhead_pct", "%", overheadPct(main.m.fps(), gw.m.fps()))
	path := map[string]spanStat{"client.capture_rpc": pl["client.capture_rpc"]}
	for name, st := range cl {
		path[name] = st
	}
	out.put("ledger.coverage", "ratio", coverage(path, gw.lat, "policy.motion", "policy.decide", "client.set_labels"))
	res.metrics = out
	res.trace = gw.tr
	return res, nil
}
