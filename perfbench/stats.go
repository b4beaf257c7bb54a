package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
// +Inf samples (failed operations) sort last, so they raise high quantiles.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly after the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailOK reports whether n samples support reporting the q-quantile: at
// least minBeyond samples must lie beyond it.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// outcome classifies one attempted query.
type outcome uint8

const (
	answered outcome = iota // correct row of a current model version
	shed                    // refused by admission control
	errored                 // the server returned an error
	stale                   // a model version older than the one installed at dispatch
	wrong                   // a row that differs from the direct forward
	overflow                // not sent: the generator's in-flight cap was reached
)

// queryRecord is one attempted query: its outcome, its latency measured
// from when it was due to be sent, whether the cache answered it, and when
// it was due, from the start of its stretch of load.
type queryRecord struct {
	out     outcome
	latency float64
	cached  bool
	due     time.Duration
}

// goodput counts the queries answered correctly within limit seconds of
// their due time. Shed, failed, stale and wrong answers all miss the limit,
// whatever their latency.
func goodput(qs []queryRecord, limit float64) int {
	good := 0
	for _, q := range qs {
		if q.out == answered && q.latency <= limit {
			good++
		}
	}
	return good
}

// latencies returns the latency of every attempted query, +Inf for failed
// ones, so that failures count as missing any latency limit.
func latencies(qs []queryRecord) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q.out == answered {
			out[i] = q.latency
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// missLatencies is latencies restricted to the queries the cache did not
// answer: those answered by a batched forward, and the failed ones (+Inf).
func missLatencies(qs []queryRecord) []float64 {
	var out []float64
	for _, q := range qs {
		switch {
		case q.out != answered:
			out = append(out, math.Inf(1))
		case !q.cached:
			out = append(out, q.latency)
		}
	}
	return out
}

// windowTail is the median, over the consecutive windows of w that end by
// span, of the q-quantile of the latencies (latencies, so failures count as
// +Inf) of the queries due in each window. It also returns the number of
// windows and the fewest queries in one, for the tailOK check. A host that
// stalls the process in bursts spoils a few windows, not the median.
func windowTail(qs []queryRecord, w, span time.Duration, q float64) (tail float64, windows, fewest int) {
	windows = int(span / w)
	if windows == 0 {
		return math.NaN(), 0, 0
	}
	per := make([][]queryRecord, windows)
	for _, r := range qs {
		if k := int(r.due / w); k < windows {
			per[k] = append(per[k], r)
		}
	}
	tails := make([]float64, windows)
	fewest = len(qs)
	for k, rs := range per {
		fewest = min(fewest, len(rs))
		if len(rs) == 0 {
			return math.NaN(), windows, 0
		}
		tails[k] = quantile(latencies(rs), q)
	}
	return median(tails), windows, fewest
}
