package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the grammar every reported metric name follows: it starts
// with a letter or digit and is at most 64 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the grammar of a metric unit ("ms", "1/s", "count", "%").
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie beyond
// it: a tail figure resting on a handful of samples is noise. The error
// names the sample count so the caller can report it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// percentileOrMax is percentile with a fallback for small samples: when
// too few samples lie beyond p it logs why and returns the maximum, so a
// short run still reports its slowest sample under the metric.
func (o Options) percentileOrMax(metric string, xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		o.logf("%s: %v; reporting the maximum instead", metric, err)
		s := sorted(xs)
		return s[len(s)-1]
	}
	return v
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
