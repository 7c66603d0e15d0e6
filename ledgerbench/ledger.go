package main

import (
	"encoding/json"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Lanes of the trace: one per benchmark goroutine, plus one for traced-only
// work kept off the blocking path.
const (
	laneMain    = 0 // the producer (or the only) goroutine
	laneConsume = 1 // push-1080p's subscriber goroutine
	laneOffPath = 2 // measurements the traced run adds outside the frame loop
	numLanes    = 3
)

// span is one timed call into a layer's public function.
type span struct {
	name   string
	frame  int
	parent int // index into the lane's spans, -1 for a root
	start  time.Duration
	end    time.Duration
}

// lane records the spans of one goroutine. A nil lane records nothing, so
// untraced runs pay only a nil check per call.
type lane struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes, for parent links
}

// tracer keeps every lane's spans in memory until the run ends.
type tracer struct {
	lanes [numLanes]*lane
}

func newTracer() *tracer {
	t := &tracer{}
	epoch := time.Now()
	for i := range t.lanes {
		t.lanes[i] = &lane{epoch: epoch}
	}
	return t
}

// lane returns lane i, or nil (record nothing) when t is nil.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// begin opens a span named name for frame; end closes it.
func (l *lane) begin(name string, frame int) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, frame: frame, parent: parent, start: time.Since(l.epoch)})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

func (l *lane) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = time.Since(l.epoch)
	l.open = l.open[:len(l.open)-1]
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus the time child spans cover
}

func (s spanStat) meanMs() float64 {
	if s.count == 0 {
		return 0
	}
	return ms(s.total) / float64(s.count)
}

// stats folds the lane's spans by name. Children run on the same goroutine
// strictly inside their parent, so a parent's self time is its duration
// minus the sum of its children's durations.
func (l *lane) stats() map[string]spanStat {
	out := map[string]spanStat{}
	if l == nil {
		return out
	}
	childTime := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - childTime[i]
		out[s.name] = st
	}
	return out
}

// spansOf returns the durations of every span named name, in order.
func (l *lane) spansOf(name string) []time.Duration {
	var out []time.Duration
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeChrome writes every span as a Chrome-trace "complete" event.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for tid, l := range t.lanes {
		for i, s := range l.spans {
			events = append(events, event{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: map[string]int{"frame": s.frame, "id": i, "parent": s.parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usage is a point-in-time reading of the process's clocks and allocator.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
	}
}

// blockLen is the span of timed work over which one throughput sample is
// taken; the reported rate is the median sample, which a brief stall on a
// shared machine does not move.
const blockLen = time.Second

// meter accumulates usage over timed segments; work between segments (the
// oracle, trace export) is not charged.
type meter struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	frames         int
	at             usage

	blk    block   // the block being filled
	blocks []block // finished blocks
}

type block struct {
	wall, cpu time.Duration
	frames    int
}

func (m *meter) start() { m.at = readUsage() }

// stop closes the open segment, which finished frames frames.
func (m *meter) stop(frames int) {
	u := readUsage()
	wall, cpu := u.wall.Sub(m.at.wall), u.cpu-m.at.cpu
	m.wall += wall
	m.cpu += cpu
	m.mallocs += u.mallocs - m.at.mallocs
	m.bytes += u.bytes - m.at.bytes
	m.frames += frames
	m.blk.wall += wall
	m.blk.cpu += cpu
	m.blk.frames += frames
	if m.blk.wall >= blockLen {
		m.blocks = append(m.blocks, m.blk)
		m.blk = block{}
	}
}

// split closes the open segment and opens the next one.
func (m *meter) split(frames int) {
	m.stop(frames)
	m.at = readUsage()
}

// fps is the median over blocks of frames per second (the whole run's
// rate when it was too short for three blocks).
func (m *meter) fps() float64 {
	return m.perBlock(float64(m.frames), m.wall.Seconds(), func(b block) (float64, float64) {
		return float64(b.frames), b.wall.Seconds()
	})
}

// cpuMsPerFrame is the median over blocks of CPU time per frame.
func (m *meter) cpuMsPerFrame() float64 {
	return m.perBlock(ms(m.cpu), float64(m.frames), func(b block) (float64, float64) {
		return ms(b.cpu), float64(b.frames)
	})
}

func (m *meter) perBlock(num, den float64, ratio func(block) (float64, float64)) float64 {
	if len(m.blocks) < 3 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var xs []float64
	for _, b := range m.blocks {
		if n, d := ratio(b); d > 0 {
			xs = append(xs, n/d)
		}
	}
	return quantile(xs, 0.5)
}

func (m *meter) perFrame(v float64) float64 {
	if m.frames == 0 {
		return 0
	}
	return v / float64(m.frames)
}

// heapPeak samples the live heap every 5 ms until stopped. Its peak is
// the 95th percentile of the samples, so one GC cycle that overshoots its
// goal does not set the figure.
type heapPeak struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// mb stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95) / 1e6
}

// allocsOf runs fn and returns the heap allocations it made. Only exact
// when no other goroutine allocates meanwhile.
func allocsOf(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

var hashSeed = maphash.MakeSeed()

// hashPix is the cheap per-frame output hash compared against the oracle.
func hashPix(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile: a weighted
// mean of all order statistics rather than one or two of them, so a
// latency percentile over a few dozen frames moves less between runs.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 {
		return quantile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 10000; i++ {
		m := float64(i / 2)
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-12 {
			break
		}
	}
	return front * (f - 1)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quality accumulates, per frame, the decoded output's PSNR against the
// frame fed to the encoder and the frame's encoded size and pixel fraction.
type quality struct {
	frames      int
	psnrSum     float64
	encBytes    int
	pixFraction float64
}

// addFrame records one frame. A lossless frame counts as 99 dB, so the
// mean stays finite and a few lossy frames move it smoothly.
func (q *quality) addFrame(encBytes int, pixFraction float64, got, want []byte) {
	var sq float64
	for i := range got {
		d := float64(got[i]) - float64(want[i])
		sq += d * d
	}
	psnr := 99.0
	if sq > 0 {
		psnr = math.Min(99, 10*math.Log10(255*255*float64(len(got))/sq))
	}
	q.frames++
	q.psnrSum += psnr
	q.encBytes += encBytes
	q.pixFraction += pixFraction
}

// mean returns the per-frame mean of a sum.
func (q *quality) mean(sum float64) float64 { return sum / float64(max(q.frames, 1)) }

// failures counts failed operations by cause.
type failures struct {
	mismatch, opErrors, dropped int
}

func (f failures) total() int { return f.mismatch + f.opErrors + f.dropped }

func (f *failures) add(o failures) {
	f.mismatch += o.mismatch
	f.opErrors += o.opErrors
	f.dropped += o.dropped
}

// labelTally counts label workloads written and refused. Refusals are a
// policy outcome on push-1080p, so they are reported beside, not inside,
// the failed frame operations.
type labelTally struct {
	written, rejected, labels int
	lags                      []float64 // frames from write to applied boundary
}

// metricSet is the result line's metrics object.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) put(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// workloadResult is what one workload run hands to main.
type workloadResult struct {
	attempted int
	failures  failures
	labels    labelTally
	metrics   metricSet
	trace     *tracer // the traced leg's spans, for the Chrome trace
}

// timeSetup sets up at least setupMin times and until setupBudget has
// passed (at most setupMax times). It returns the median duration and the
// last set-up's product, closing the others.
func timeSetup[T any](setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var secs []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(t0)
		secs = append(secs, d.Seconds())
		spent += d
		if len(secs) >= setupMax || len(secs) >= setupMin && spent >= setupBudget {
			return v, quantile(secs, 0.5), nil
		}
		closeFn(v)
	}
}

// lockedRing stores per-frame start times for at most len(ring) frames in
// flight, written by a producer and read by a consumer.
type lockedRing struct {
	mu   sync.Mutex
	ring [8]time.Time
}

func (r *lockedRing) put(i int, t time.Time) {
	r.mu.Lock()
	r.ring[i%len(r.ring)] = t
	r.mu.Unlock()
}

func (r *lockedRing) get(i int) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring[i%len(r.ring)]
}
