// Command ledgerbench is the repository's benchmark: three seeded,
// closed-loop workloads driven through the real stack, each printing its
// end-to-end metrics (or, traced, a per-layer ledger) and a last line of
// JSON with the attempted and failed operation counts.
//
//	ledgerbench --workload camera-1080p|push-1080p|rpc-qvga --seed N --seconds S --trace 0|1
//
// Every decoded frame or tile is hashed and checked afterwards against an
// in-process rpx.System fed the same inputs; any mismatch makes the run
// incorrect and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// A run sets up at least setupMin times and for at least setupBudget
	// (at most setupMax times); setup_s is the median set-up.
	setupMin    = 5
	setupMax    = 50
	setupBudget = time.Second

	tracedBlocks = 5 // interleaved blocks per leg in a traced run
)

var workloads = map[string]func(seed int64, total time.Duration, traced bool) (workloadResult, error){
	"camera-1080p": func(seed int64, total time.Duration, traced bool) (workloadResult, error) {
		return runCamera(defaultCamera(), seed, total, traced)
	},
	"push-1080p": func(seed int64, total time.Duration, traced bool) (workloadResult, error) {
		return runPush(defaultPush(), seed, total, traced)
	},
	"rpc-qvga": func(seed int64, total time.Duration, traced bool) (workloadResult, error) {
		return runRPC(defaultRPC(), seed, total, traced)
	},
}

func main() {
	workload := flag.String("workload", "", "camera-1080p, push-1080p or rpc-qvga")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "timed seconds of closed-loop work")
	trace := flag.Int("trace", 0, "1 runs the traced ledger and prints per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/ledgerbench", "where a traced run writes its Chrome trace")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledgerbench: usage: --workload camera-1080p|push-1080p|rpc-qvga --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if res.trace != nil {
		path := filepath.Join(*traceDir, "trace-"+*workload+".json")
		if err := res.trace.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "ledgerbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace: %s\n", path)
	}
	if *trace == 1 {
		fillLayers(res.metrics)
	}
	printResult(*workload, res)
	if res.failures.mismatch > 0 {
		os.Exit(1)
	}
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; one that means nothing on a workload reads 0 there.
var perLayer = [][2]string{
	{"sensor.capture_ms", "ms"}, {"sensor.csi_ms", "ms"}, {"sensor.csi_bytes_per_frame", "B"},
	{"isp.process_ms", "ms"}, {"isp.allocs_per_frame", "count"},
	{"rpx.set_labels_ms", "ms"},
	{"core.capture_ms", "ms"}, {"core.encode_allocs_per_frame", "count"},
	{"core.paint_ops_per_frame", "count"}, {"core.roi_compares_per_frame", "count"},
	{"core.decode_window_ms", "ms"}, {"core.decode_frame_ms", "ms"}, {"core.decoder_push_ms", "ms"},
	{"core.decode_allocs_per_frame", "count"}, {"core.subrequests_per_frame", "count"},
	{"core.metadata_bits_per_frame", "bit"},
	{"wire.append_ms", "ms"}, {"wire.append_packed_ms", "ms"},
	{"client.unpack_ms", "ms"}, {"client.capture_rpc_ms", "ms"}, {"server.capture_ms", "ms"},
	{"client.transport_ms", "ms"}, {"client.get_encoded_ms", "ms"}, {"client.set_labels_ms", "ms"},
	{"client.recv_wait_ms", "ms"},
	{"gateway.relay_ms", "ms"}, {"gateway.relay_spread_ms", "ms"}, {"gateway.relay_resolved", "bool"},
	{"policy.motion_ms", "ms"}, {"policy.decide_ms", "ms"},
	{"policy.labels_per_push", "count"}, {"policy.labels_rejected_ratio", "ratio"},
	{"server.stream_dropped", "count"}, {"server.backlog_rejects", "count"},
	{"trace.overhead_pct", "%"}, {"ledger.coverage", "ratio"},
}

func fillLayers(m metricSet) {
	for _, nu := range perLayer {
		if _, ok := m[nu[0]]; !ok {
			m.put(nu[0], nu[1], 0)
		}
	}
}

// printResult prints a readable table, then the JSON result line.
func printResult(workload string, res workloadResult) {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s\n", workload)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	f := res.failures
	fmt.Printf("  operations: %d attempted, %d failed (%d oracle mismatches, %d errors, %d dropped)\n",
		res.attempted, f.total(), f.mismatch, f.opErrors, f.dropped)
	if t := res.labels; t.written > 0 {
		fmt.Printf("  label workloads: %d written, %d refused (mean %.0f labels each)\n",
			t.written, t.rejected, float64(t.labels)/float64(t.written))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   f.mismatch == 0,
		"attempted": max(res.attempted, 1),
		"failed":    f.total(),
		"metrics":   res.metrics,
	})
	if err != nil {
		panic(err) // only numbers and strings: cannot fail
	}
	fmt.Println(string(line))
}

// endToEnd derives the end-to-end metrics from an untraced leg.
func endToEnd(setupS float64, m *meter, lat []float64, heapMB float64, q *quality, lags []float64) metricSet {
	out := metricSet{}
	out.put("setup_s", "s", setupS)
	out.put("fps", "1/s", m.fps())
	out.put("latency_p50_ms", "ms", hdQuantile(lat, 0.5))
	out.put("latency_p90_ms", "ms", hdQuantile(lat, 0.9))
	out.put("cpu_ms_per_frame", "ms", m.cpuMsPerFrame())
	out.put("encoded_bytes_per_frame", "B", q.mean(float64(q.encBytes)))
	out.put("pixel_fraction", "ratio", q.mean(q.pixFraction))
	out.put("psnr_db", "dB", q.mean(q.psnrSum))
	out.put("steer_lag_frames", "frames", quantile(lags, 0.5))
	out.put("allocs_per_frame", "count", m.perFrame(float64(m.mallocs)))
	out.put("alloc_mb_per_frame", "MB", m.perFrame(float64(m.bytes)/1e6))
	out.put("heap_peak_mb", "MB", heapMB)
	return out
}

// drive runs the timed window. Untraced, only the first leg runs, and the
// heap peak is sampled; traced, every leg runs, interleaved.
func drive(total time.Duration, traced bool, legs ...func(time.Duration) error) (heapMB float64, err error) {
	if traced {
		return 0, alternate(total, tracedBlocks, legs...)
	}
	heap := startHeapPeak()
	err = legs[0](total)
	return heap.mb(), err
}

// alternate splits total evenly over the legs and interleaves them in
// blocks, so drift in the machine's speed lands on every leg alike.
func alternate(total time.Duration, blocks int, legs ...func(time.Duration) error) error {
	per := total / time.Duration(blocks*len(legs))
	for b := 0; b < blocks; b++ {
		for _, leg := range legs {
			if err := leg(per); err != nil {
				return err
			}
		}
	}
	return nil
}

// overheadPct is how much slower the traced leg ran, in percent.
func overheadPct(untracedFPS, tracedFPS float64) float64 {
	if untracedFPS == 0 {
		return 0
	}
	return (untracedFPS - tracedFPS) / untracedFPS * 100
}

// coverage is the share of the end-to-end frame time that the layer spans
// on the frames' blocking path account for: their summed self times over
// the summed frame latencies of the traced leg. The frame root, the
// benchmark's own bench.* spans and the named off-path spans are left out;
// what remains uncovered is glue and, on push-1080p, queueing.
func coverage(spans map[string]spanStat, latMs []float64, offPath ...string) float64 {
	var lat float64
	for _, v := range latMs {
		lat += v
	}
	if lat == 0 {
		return 0
	}
	var sum time.Duration
	for name, s := range spans {
		if name == "frame" || strings.HasPrefix(name, "bench.") || slices.Contains(offPath, name) {
			continue
		}
		sum += s.self
	}
	return ms(sum) / lat
}

// putRelay reports the gateway's added Capture latency: per interleaved
// block, the traced gateway leg's median round trip minus the direct leg's.
// The spread is the distance between the quartiles of those differences;
// a relay time inside its spread is flagged unresolved (0).
func putRelay(out metricSet, viaGateway, direct []float64) {
	n := min(len(viaGateway), len(direct))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = viaGateway[i] - direct[i]
	}
	relay := quantile(diffs, 0.5)
	spread := quantile(diffs, 0.75) - quantile(diffs, 0.25)
	resolved := 0.0
	if relay > spread || relay < -spread {
		resolved = 1
	}
	out.put("gateway.relay_ms", "ms", relay)
	out.put("gateway.relay_spread_ms", "ms", spread)
	out.put("gateway.relay_resolved", "bool", resolved)
}
