package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tailRank returns the 0-based rank, in ascending order, of the tail
// sample: the highest percentile with at least minBeyond samples beyond it
// is the (minBeyond+1)-th largest sample. It reports false when n has no
// sample with minBeyond above it.
func tailRank(n int) (int, bool) {
	if n <= minBeyond {
		return 0, false
	}
	return n - minBeyond - 1, true
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Timing summarizes one set of latency samples the way every timing of the
// benchmark is reported: a median plus the highest percentile with at
// least ten samples beyond it.
type Timing struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(xs []float64) Timing {
	t := Timing{N: len(xs), P50: median(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if k, ok := tailRank(len(xs)); ok {
		t.TailPct = 100 * float64(k+1) / float64(len(xs))
		t.Tail = sorted[k]
	} else if len(xs) > 0 {
		// Too few samples for a tail: report the maximum, marked as p100.
		t.TailPct = 100
		t.Tail = sorted[len(xs)-1]
	}
	return t
}

// grindNS is MFC's grind time: wall time per cell per right-hand-side
// evaluation, in nanoseconds.
func grindNS(stepSeconds float64, cells int64, rhsEvals int) float64 {
	return stepSeconds * 1e9 / (float64(cells) * float64(rhsEvals))
}
