package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestExactQuantileNearestRank(t *testing.T) {
	var xs []int64
	for i := int64(100); i >= 1; i-- { // unsorted input
		xs = append(xs, i)
	}
	cases := []struct {
		q     float64
		want  int64
		above int
	}{
		{0.5, 50, 50}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}, {0, 1, 99},
	}
	for _, c := range cases {
		got := ExactQuantile(xs, c.q)
		if got.Value != c.want || got.Count != 100 || got.Above != c.above {
			t.Errorf("q=%v: got %+v, want value %d count 100 above %d", c.q, got, c.want, c.above)
		}
	}
	if got := ExactQuantile(nil, 0.5); got != (Quantile{}) {
		t.Errorf("empty: got %+v", got)
	}
	// Ties: above counts only samples strictly greater than the value.
	ties := []int64{5, 5, 5, 5, 9}
	if got := ExactQuantile(ties, 0.5); got.Value != 5 || got.Above != 1 {
		t.Errorf("ties: got %+v, want value 5 above 1", got)
	}
}

// TestLatencyLogMatchesExactQuantile checks the fixed-memory log
// against nearest-rank quantiles of the same samples read to its unit,
// with samples on both sides of its counted range, ties, a negative
// one, and half of them merged in from a second log.
func TestLatencyLogMatchesExactQuantile(t *testing.T) {
	const unit = 10
	rng := rand.New(rand.NewSource(7))
	l, other := NewLatencyLog(1000*unit, unit), NewLatencyLog(1000*unit, unit)
	var raw []int64
	add := func(to *LatencyLog, ns int64) {
		to.Add(ns)
		raw = append(raw, max(ns, 0)/unit*unit)
	}
	add(l, -3)
	for i := 0; i < 5000; i++ {
		ns := rng.Int63n(1200 * unit) // about 1 in 6 lands past the range
		if i%7 == 0 {
			ns = 999*unit + 3 // ties at the last counted value
		}
		if i%2 == 0 {
			add(l, ns)
		} else {
			add(other, ns)
		}
	}
	l.Merge(other)
	for _, q := range []float64{0, 0.001, 0.5, 0.8, 0.83, 0.9, 0.99, 1} {
		want := ExactQuantile(append([]int64(nil), raw...), q)
		if got := l.Quantile(q); got != want {
			t.Errorf("q=%v: log %+v, exact %+v", q, got, want)
		}
	}
	if got := NewLatencyLog(10, 1).Quantile(0.5); got != (Quantile{}) {
		t.Errorf("empty: got %+v", got)
	}
}

// TestCalmPercentilesKeepsLeastStolenHalf checks that the gated
// percentiles pool the half of the parts with the fewest steal ticks,
// earlier parts first among equals, and that all99 pools every part.
func TestCalmPercentilesKeepsLeastStolenHalf(t *testing.T) {
	part := func(steal float64, lat ...int64) *subWin {
		p := &subWin{steal: steal, lat: newPartLog(), finished: true}
		for _, v := range lat {
			p.lat.Add(v * latUnitNs)
		}
		return p
	}
	parts := []*subWin{
		part(5, 900, 900),
		part(0, 10, 20),
		part(1, 30, 40),
		part(1, 800, 800),             // ties with the part before; the earlier one is kept
		{steal: 0, lat: newPartLog()}, // unfinished: ignored
	}
	p50, p99, all99, kept := calmPercentiles(parts)
	if kept != 2 {
		t.Fatalf("kept %d parts, want 2", kept)
	}
	if p50.Value != 20*latUnitNs || p99.Value != 40*latUnitNs || p99.Count != 4 {
		t.Errorf("calm p50 %+v p99 %+v, want 20 and 40 over 4 samples", p50, p99)
	}
	if all99.Value != 900*latUnitNs || all99.Count != 8 {
		t.Errorf("all p99 %+v, want 900 over 8 samples", all99)
	}
	if _, _, _, kept := calmPercentiles(nil); kept != 0 {
		t.Errorf("no parts: kept %d", kept)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := Median(in); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if in[0] != 3 {
		t.Errorf("Median modified its input")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
}

func TestPartBestQuartiles(t *testing.T) {
	xs := []float64{8, 1, 7, 2, 6, 3, 5, 4} // 8 parts
	if got := PartBest(xs, false); got != 2 {
		t.Errorf("lower quartile %v, want 2", got)
	}
	if got := PartBest(xs, true); got != 7 {
		t.Errorf("upper quartile %v, want 7", got)
	}
	if xs[0] != 8 {
		t.Errorf("PartBest modified its input")
	}
	if got := PartBest([]float64{5}, true); got != 5 {
		t.Errorf("single part %v", got)
	}
	if got := PartBest(nil, false); got != 0 {
		t.Errorf("empty %v", got)
	}
}

func TestGeomeanOverCells(t *testing.T) {
	g, ok := Geomean([]float64{1, 4, 16})
	if !ok || math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, %v; want 4", g, ok)
	}
	g, ok = Geomean([]float64{2.5})
	if !ok || math.Abs(g-2.5) > 1e-12 {
		t.Errorf("geomean(2.5) = %v", g)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, ok := Geomean(bad); ok {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var a Accounting
	a.Attempted = 10
	a.Fail(FailOverload)
	a.Fail(FailOverload)
	a.Fail(FailSubmit)
	if a.FailedTotal() != 3 || a.Succeeded() != 7 {
		t.Fatalf("total %d succeeded %d, want 3 and 7", a.FailedTotal(), a.Succeeded())
	}
	if got := a.FailedFrac(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("failed frac %v, want 0.3", got)
	}
	var b Accounting
	b.Attempted = 5
	b.Fail(FailCorrupt)
	a.Add(b)
	if a.Attempted != 15 || a.Failed[FailOverload] != 2 || a.Failed[FailCorrupt] != 1 || a.FailedTotal() != 4 {
		t.Errorf("after Add: %+v", a)
	}
	var zero Accounting
	if zero.FailedFrac() != 0 || zero.Succeeded() != 0 {
		t.Errorf("zero accounting: frac %v succeeded %d", zero.FailedFrac(), zero.Succeeded())
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Layer: "loadgen", Parent: -1, Start: 0, End: 100}, // 0
		{Layer: "submit", Parent: 0, Start: 10, End: 30},   // 1
		{Layer: "retrieve", Parent: 0, Start: 20, End: 50}, // 2: overlaps 1
		{Layer: "poll", Parent: 0, Start: 90, End: 120},    // 3: runs past the parent
		{Layer: "inner", Parent: 1, Start: 12, End: 18},    // 4: grandchild
		{Layer: "loadgen", Parent: -1, Start: 200, End: 210},
	}
	self := SelfTime(spans)
	// Parent 0 covers [10,50) and [90,100): 50 ns; self 100-50 = 50.
	// Second root has no children: 10.
	want := map[string]int64{"loadgen": 60, "submit": 14, "retrieve": 30, "poll": 30, "inner": 6}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	if got := RootTime(spans); got != 110 {
		t.Errorf("root time %d, want 110", got)
	}
}

func TestLaneNestingAndCap(t *testing.T) {
	budget := 2
	l := NewLane("t", &budget)
	l.Begin("outer")
	l.Begin("inner")
	l.End(ReqID(3, 7))
	l.Begin("dropped")
	l.End(0)
	l.End(0)
	sp := l.Spans()
	if len(sp) != 2 {
		t.Fatalf("kept %d spans, want 2", len(sp))
	}
	if sp[1].Parent != 0 || sp[1].ID != 3<<32|7 || sp[0].Parent != -1 {
		t.Errorf("spans %+v", sp)
	}
	if a := l.Agg("dropped"); a.Calls != 1 {
		t.Errorf("dropped span not aggregated: %+v", a)
	}
	budget = 1
	l.Reset()
	if len(l.Spans()) != 0 || l.Agg("inner").Calls != 0 {
		t.Errorf("Reset kept spans %v or aggregates", l.Spans())
	}
	l.Begin("after")
	l.End(0)
	if sp := l.Spans(); len(sp) != 1 || sp[0].Layer != "after" || sp[0].Parent != -1 {
		t.Errorf("spans after Reset %+v", sp)
	}
	var nilLane *Lane
	nilLane.Begin("x")
	nilLane.End(0)
	nilLane.Reset()
	if nilLane.Agg("x").Calls != 0 {
		t.Errorf("nil lane recorded")
	}
}

func TestAdoptJoinsLanesUnderParent(t *testing.T) {
	budget := 10
	root := NewLane("sim", &budget)
	kid := NewLane("proc", &budget)
	root.Add("sim:Run", 0, 0, 100)
	kid.Add("core:Submit", 0, 10, 20)
	kid.Add("core:Poll", 0, 15, 40) // overlaps the submit span
	root.Adopt(0, kid)
	if len(kid.Spans()) != 0 || len(root.Spans()) != 3 {
		t.Fatalf("root %d spans, kid %d", len(root.Spans()), len(kid.Spans()))
	}
	self := SelfTime(root.Spans())
	if self["sim:Run"] != 70 {
		t.Errorf("run self %d, want 70", self["sim:Run"])
	}
}

func TestExclusiveTime(t *testing.T) {
	nested := []Span{
		{Layer: "a", Parent: -1, Start: 0, End: 100},
		{Layer: "b", Parent: 0, Start: 10, End: 30},
		{Layer: "c", Parent: 1, Start: 12, End: 18},
		{Layer: "b", Parent: 0, Start: 60, End: 70},
	}
	ex, self := ExclusiveTime(nested), SelfTime(nested)
	for _, k := range []string{"a", "b", "c"} {
		if ex[k] != self[k] {
			t.Errorf("nested %s: exclusive %d, self %d", k, ex[k], self[k])
		}
	}
	// Two simulated processes: p parks inside its call at 20 while q's
	// call runs 20..50; p's call resumes and ends at 60.
	procs := []Span{
		{Layer: "run", Parent: -1, Start: 0, End: 100},
		{Layer: "p", Parent: 0, Start: 10, End: 60},
		{Layer: "q", Parent: 0, Start: 20, End: 50},
	}
	ex = ExclusiveTime(procs)
	want := map[string]int64{"run": 50, "p": 20, "q": 30}
	for k, v := range want {
		if ex[k] != v {
			t.Errorf("procs %s: exclusive %d, want %d", k, ex[k], v)
		}
	}
}

func TestUnstolen(t *testing.T) {
	cases := []struct {
		busy, steal float64
		want        float64
	}{
		{90, 10, 0.9}, {100, 0, 1}, {0, 0, 1}, {0, 5, 1},
	}
	for _, c := range cases {
		if got := unstolen(c.busy, c.steal); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("unstolen(%v, %v) = %v, want %v", c.busy, c.steal, got, c.want)
		}
	}
}

// TestCPUSnapWeighsStealByUse checks that a CPU's steal counts by the
// share of its unstolen ticks it was busy.
func TestCPUSnapWeighsStealByUse(t *testing.T) {
	a := cpuSnap{{100, 100, 10}, {100, 100, 10}}
	b := cpuSnap{{190, 110, 30}, {110, 190, 50}} // 90% busy, 10% busy
	busy, steal := b.since(a)
	if busy != 100 || math.Abs(steal-(20*0.9+40*0.1)) > 1e-9 {
		t.Errorf("since: busy %v steal %v, want 100 and 22", busy, steal)
	}
	if busy, steal := b.since(cpuSnap{{0, 0, 0}}); busy != 0 || steal != 0 {
		t.Errorf("mismatched snapshots: busy %v steal %v", busy, steal)
	}
}
