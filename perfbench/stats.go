package main

import (
	"math"
	"sort"
)

// Quantile is one percentile read from raw samples, with the number of
// samples it was read from and how many lie strictly above it.
type Quantile struct {
	Value int64
	Count int
	Above int
}

// ExactQuantile returns the nearest-rank q-quantile of samples (the
// smallest value with at least q of the samples at or below it). It
// sorts samples in place. An empty slice gives the zero Quantile.
func ExactQuantile(samples []int64, q float64) Quantile {
	n := len(samples)
	if n == 0 {
		return Quantile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := samples[rank-1]
	above := n - sort.Search(n, func(i int) bool { return samples[i] > v })
	return Quantile{Value: v, Count: n, Above: above}
}

// LatencyLog keeps latency samples, read to a fixed resolution,
// losslessly in fixed memory: a count per value below its range, and the
// rare larger samples raw. Its quantiles are those ExactQuantile reads
// from the same samples at that resolution, while its memory does not
// grow with the sample count, so the peak RSS does not follow a run's
// throughput.
type LatencyLog struct {
	unit   int64    // ns per recorded unit
	counts []uint32 // counts[v]: samples of v units
	over   []int64  // samples of len(counts) units or more
	n      int
}

// NewLatencyLog makes a log of samples read in units of unitNs, with a
// count for each value below rangeNs. Every page of the count table is
// written here, so what the log adds to the resident set is the same on
// every run.
func NewLatencyLog(rangeNs, unitNs int64) *LatencyLog {
	l := &LatencyLog{unit: unitNs, counts: make([]uint32, rangeNs/unitNs)}
	for i := range l.counts {
		l.counts[i] = 0
	}
	return l
}

// Add records one sample of ns nanoseconds, truncated to the log's
// unit; a negative one counts as 0.
func (l *LatencyLog) Add(ns int64) {
	v := max(ns, 0) / l.unit
	l.n++
	if v < int64(len(l.counts)) {
		l.counts[v]++
	} else {
		l.over = append(l.over, v)
	}
}

// Merge adds the samples of o, a log of the same range and unit.
func (l *LatencyLog) Merge(o *LatencyLog) {
	for v, c := range o.counts {
		l.counts[v] += c
	}
	l.over = append(l.over, o.over...)
	l.n += o.n
}

// Quantile returns the nearest-rank q-quantile of the samples in ns, as
// ExactQuantile would over them at the log's resolution.
func (l *LatencyLog) Quantile(q float64) Quantile {
	n := l.n
	if n == 0 {
		return Quantile{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	below := 0 // samples under the current value
	for v, c := range l.counts {
		if below+int(c) >= rank {
			return Quantile{Value: int64(v) * l.unit, Count: n, Above: n - below - int(c)}
		}
		below += int(c)
	}
	sort.Slice(l.over, func(i, j int) bool { return l.over[i] < l.over[j] })
	v := l.over[rank-below-1]
	atOrBelow := below + sort.Search(len(l.over), func(i int) bool { return l.over[i] > v })
	return Quantile{Value: v * l.unit, Count: n, Above: n - atOrBelow}
}

// Median returns the median of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// PartBest returns the quartile of xs on the better side: the upper
// quartile (nearest rank) when higher is better, else the lower one.
// Over repeated parts of one run it estimates the program's own speed
// while interference from the host slows some of the parts.
// 0 for an empty slice; xs is not modified.
func PartBest(xs []float64, higherBetter bool) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.25 * float64(n))) // lower quartile, 1-based
	if higherBetter {
		rank = n + 1 - rank
	}
	return s[rank-1]
}

// Mean is the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean of xs. Every value must be
// positive; ok is false otherwise or when xs is empty.
func Geomean(xs []float64) (g float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	var logs float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, false
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs))), true
}

// Failure kinds. Each failed or refused operation is counted under
// exactly one kind.
const (
	FailOverload  = "overload"   // completion with ErrOverload (admission shed)
	FailNoSlots   = "no_slots"   // completion with ErrNoSlots
	FailCanceled  = "canceled"   // completion with ErrCanceled
	FailDeadline  = "deadline"   // completion with ErrDeadline
	FailOtherErr  = "other_err"  // completion with any other non-nil error
	FailSubmit    = "submit_err" // Submit/SubmitBatch returned an error
	FailSimStatus = "sim_failed" // simulated MovReq completed StatusFailed
	FailCorrupt   = "corrupt"    // completed, but the output check failed
)

// FailKinds lists the failure kinds in report order.
var FailKinds = []string{FailOverload, FailNoSlots, FailCanceled, FailDeadline,
	FailOtherErr, FailSubmit, FailSimStatus, FailCorrupt}

// Accounting counts attempted operations and their failures by kind.
// Only successful operations may count toward throughput metrics.
type Accounting struct {
	Attempted int64
	Failed    map[string]int64
}

// Fail records one failed attempt of the given kind.
func (a *Accounting) Fail(kind string) {
	if a.Failed == nil {
		a.Failed = make(map[string]int64)
	}
	a.Failed[kind]++
}

// FailedTotal is the number of failed or refused attempts.
func (a *Accounting) FailedTotal() int64 {
	var n int64
	for _, v := range a.Failed {
		n += v
	}
	return n
}

// Succeeded is the number of attempts that did not fail.
func (a *Accounting) Succeeded() int64 { return a.Attempted - a.FailedTotal() }

// FailedFrac is failed ÷ attempted (0 when nothing was attempted).
func (a *Accounting) FailedFrac() float64 {
	if a.Attempted == 0 {
		return 0
	}
	return float64(a.FailedTotal()) / float64(a.Attempted)
}

// Add folds b's counts into a.
func (a *Accounting) Add(b Accounting) {
	a.Attempted += b.Attempted
	for k, v := range b.Failed {
		if a.Failed == nil {
			a.Failed = make(map[string]int64)
		}
		a.Failed[k] += v
	}
}
