package main

import (
	"math"
	"math/rand"

	"repro/internal/frame"
	"repro/internal/region"
	"repro/internal/synth"
)

// Every input is a function of the workload seed alone; the program under
// test only ever sees what these functions generate.

// renderScenes renders n w x h Gray8 views along a seeded ProfileMedium
// camera trajectory through a seeded synth world.
func renderScenes(w, h, n int, seed int64) []*frame.Frame {
	margin := int(math.Hypot(float64(w), float64(h))/2) + 8
	side := 2*margin + 256
	world := synth.NewWorld(side, side, seed)
	poses := world.Trajectory(n, w, h, synth.ProfileMedium, seed+1)
	out := make([]*frame.Frame, n)
	for i, p := range poses {
		out[i] = world.Render(p, w, h)
	}
	return out
}

// labelShape bounds the random regions of one workload.
type labelShape struct {
	minCount, maxCount int // regions per set
	minSide, maxSide   int // region width and height in pixels
	maxStride, maxSkip int
}

// vslamShape follows the paper's Table 4 V-SLAM configuration: about a
// thousand feature-centred regions of 70-230 px, stride 1-4, skip 1-3.
var vslamShape = labelShape{minCount: 950, maxCount: 1050, minSide: 70, maxSide: 230, maxStride: 4, maxSkip: 3}

// qvgaShape is rpc-qvga's workload: 16-48 regions per set.
var qvgaShape = labelShape{minCount: 16, maxCount: 48, minSide: 8, maxSide: 48, maxStride: 4, maxSkip: 3}

// labelSets draws n seeded region sets of the given shape for a w x h frame.
func labelSets(w, h, n int, shape labelShape, seed int64) []region.List {
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	sets := make([]region.List, n)
	for i := range sets {
		count := between(shape.minCount, shape.maxCount)
		ls := make(region.List, count)
		for j := range ls {
			lw := min(between(shape.minSide, shape.maxSide), w)
			lh := min(between(shape.minSide, shape.maxSide), h)
			skip := between(1, shape.maxSkip)
			ls[j] = region.Label{
				X: rng.Intn(w - lw + 1), Y: rng.Intn(h - lh + 1), W: lw, H: lh,
				Stride: between(1, shape.maxStride), Skip: skip, Phase: rng.Intn(skip),
			}
		}
		sets[i] = ls
	}
	return sets
}

// tilePositions draws n seeded top-left corners of side x side windows.
func tilePositions(w, h, side, n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{rng.Intn(w - side + 1), rng.Intn(h - side + 1)}
	}
	return out
}
