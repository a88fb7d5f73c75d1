package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted samples by
// linear interpolation between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that
// has at least minBeyond samples beyond it, and false when n is too small
// for any percentile above the median.
func tailPercentile(n int) (float64, bool) {
	if n < 2*minBeyond {
		return 0, false
	}
	return math.Floor(100 - 100*minBeyond/float64(n) + 1e-9), true
}

// ratio is a quotient that keeps its operands, so it prints with its base.
type ratio struct {
	num, den       float64
	numName, denOf string
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

// String renders "0.0123 (12 of 976 jobs)" style text; whole operands
// print without decimals.
func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%s %s of %s %s)", r.value(), num(r.num), r.numName, num(r.den), r.denOf)
}

func num(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.4g", x)
}
