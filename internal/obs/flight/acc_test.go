package flight

import (
	"sync"
	"testing"

	"memif/internal/obs/lifecycle"
)

// Feeding homogeneous batches through an Acc must land on exactly the
// same lane state, breach decisions, and SLO counters as per-request
// Observe calls: the batch-mean fold is the same fixed point when every
// latency in the batch is equal.
func TestAccMatchesObserve(t *testing.T) {
	opts := Options{
		ThresholdFloorNs: 1, ThresholdMult: 4, EWMAShift: 3, Warmup: 4,
		SLO: SLOOptions{ClassObjectiveNs: [MaxClasses]int64{0: 10_000}},
	}
	direct := New(opts)
	batched := New(opts)

	// Batches of equal latencies, climbing so later ones breach.
	batches := [][]int64{
		{1_000, 1_000, 1_000, 1_000},
		{2_000, 2_000},
		{100_000}, // breach: far past 4x the trained EWMA
		{3_000, 3_000, 3_000},
	}
	// Per-observation thresholds legitimately differ inside a batch (the
	// accumulator freezes the lane's threshold at first touch; direct
	// Observe re-derives it every call), so the equivalence claim is on
	// the folded end state, not on intermediate readings.
	for _, lats := range batches {
		var acc Acc
		acc.Init(batched)
		for _, lat := range lats {
			direct.Observe(0, 0, lat, true)
			acc.Observe(0, 0, lat, true, nil, 0)
		}
		acc.Flush()
	}

	ds, bs := direct.Snapshot(), batched.Snapshot()
	if ds.Breaches != bs.Breaches || ds.Breaches == 0 {
		t.Fatalf("breaches: direct %d vs batched %d", ds.Breaches, bs.Breaches)
	}
	if len(ds.Thresholds) != 1 || len(bs.Thresholds) != 1 {
		t.Fatalf("lane counts: direct %d vs batched %d", len(ds.Thresholds), len(bs.Thresholds))
	}
	if ds.Thresholds[0] != bs.Thresholds[0] {
		t.Fatalf("lane state diverged:\n direct  %+v\n batched %+v",
			ds.Thresholds[0], bs.Thresholds[0])
	}
	dc, bc := ds.SLO.Classes[0], bs.SLO.Classes[0]
	if dc.Good != bc.Good || dc.Total != bc.Total || dc.Good == 0 {
		t.Fatalf("SLO diverged: direct %d/%d vs batched %d/%d",
			dc.Good, dc.Total, bc.Good, bc.Total)
	}
}

// A batch touching more distinct lanes than the accumulator holds must
// spill to the unbatched path without losing any accounting.
func TestAccSpillPastLaneCapacity(t *testing.T) {
	opts := Options{ThresholdFloorNs: 1, Warmup: 1, Classes: 2}
	r := New(opts)
	r.EnsureTenants(4)

	var acc Acc
	acc.Init(r)
	// 2 classes x 4 tenants = 8 lanes, double the accumulator's 4.
	for class := 0; class < 2; class++ {
		for tenant := 0; tenant < 4; tenant++ {
			acc.Observe(class, tenant, 5_000, true, nil, 0)
		}
	}
	acc.Flush()

	s := r.Snapshot()
	if len(s.Thresholds) != 8 {
		t.Fatalf("trained %d lanes, want 8: %+v", len(s.Thresholds), s.Thresholds)
	}
	for _, th := range s.Thresholds {
		if th.Count != 1 || th.EWMANs != 5_000 {
			t.Fatalf("lane (%d,%d): count %d ewma %d, want 1 / 5000",
				th.Class, th.Tenant, th.Count, th.EWMANs)
		}
	}
}

// The breach counter must advance at Observe time, not at Flush: the
// capture that follows a breach decision bumps Captured immediately, and
// Captured == Breaches + Stalls + Events has to hold at every instant.
func TestAccBreachCountsBeforeFlush(t *testing.T) {
	r := New(Options{ThresholdFloorNs: 1, Warmup: 1})
	r.Observe(0, 0, 1_000, true) // warm + train

	var acc Acc
	acc.Init(r)
	if _, breach := acc.Observe(0, 0, 1_000_000, true, nil, 0); !breach {
		t.Fatal("1000x latency not flagged through the accumulator")
	}
	if got := r.Snapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d before Flush, want 1", got)
	}
	acc.Flush()
	if got := r.Snapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d after Flush, want 1", got)
	}
}

// Every Acc method must be safe against a nil (disarmed) recorder and
// against reuse after Flush.
func TestAccNilAndReuse(t *testing.T) {
	var acc Acc
	acc.Init(nil)
	if thr, breach := acc.Observe(0, 0, 1e9, true, nil, 0); thr != 0 || breach {
		t.Fatalf("nil-recorder Observe = (%d, %v), want (0, false)", thr, breach)
	}
	acc.Flush()

	r := New(Options{ThresholdFloorNs: 1, Warmup: 1})
	acc.Init(r)
	for i := 0; i < 3; i++ {
		acc.Observe(0, 0, 2_000, true, nil, 0)
	}
	acc.Flush()
	acc.Init(r) // new batch on the same accumulator
	acc.Observe(0, 0, 2_000, true, nil, 0)
	acc.Flush()
	s := r.Snapshot()
	if len(s.Thresholds) != 1 || s.Thresholds[0].Count != 4 {
		t.Fatalf("reused accumulator lost observations: %+v", s.Thresholds)
	}
}

// Stage spans fold per lane and land in the recorder's class and tenant
// sets at Flush — every request exactly once, whether its lane was
// batched, spilled past the accumulator's capacity, or published early
// because its fold filled up.
func TestAccSpansPerLane(t *testing.T) {
	r := New(Options{Classes: 2})
	r.EnsureTenants(4)
	ts := lifecycle.Stamps(100, 110, 130, 160, 200, 210, 260)

	var acc Acc
	acc.Init(r)
	if r.ClassSpans(0).Spans[lifecycle.SpanTotal].Count != 0 {
		t.Fatal("spans visible before any Flush")
	}
	// 2 classes x 4 tenants = 8 lanes (4 spill), 40 requests per lane,
	// then 300 more on one lane to overflow its fold mid-batch.
	for round := 0; round < 40; round++ {
		for class := 0; class < 2; class++ {
			for tenant := 0; tenant < 4; tenant++ {
				acc.Observe(class, tenant, 160, true, &ts, lifecycle.FlagStolen)
			}
		}
	}
	for i := 0; i < 300; i++ {
		acc.Observe(0, 0, 160, true, &ts, lifecycle.FlagInline)
	}
	acc.Flush()

	all := r.ClassSpans(0).Add(r.ClassSpans(1))
	if got, want := all.Spans[lifecycle.SpanTotal].Count, int64(40*8+300); got != want {
		t.Fatalf("total span count = %d, want %d", got, want)
	}
	if r.ClassSpans(2).Spans[lifecycle.SpanTotal].Count != 0 {
		t.Fatal("a class outside the recorder's range reported spans")
	}
	var tenants lifecycle.SpanSnapshot
	for tenant := 0; tenant < 4; tenant++ {
		tenants = tenants.Add(r.TenantSpans(tenant))
	}
	if tenants != all {
		t.Fatalf("tenant sets do not add up to the recorder-wide set")
	}
	// Only the stolen, ring-path requests carry ring wait and steal delay.
	if c := all.Spans[lifecycle.SpanStealDelay].Count; c != 40*8 {
		t.Errorf("steal delay count = %d, want %d", c, 40*8)
	}
	if h := all.Spans[lifecycle.SpanRingWait]; h.Count != 40*8 || h.Sum != 30*40*8 {
		t.Errorf("ring wait = %d samples / %d ns, want %d / %d", h.Count, h.Sum, 40*8, 30*40*8)
	}
	if r.TenantSpans(9).Spans[lifecycle.SpanTotal].Count != 0 {
		t.Error("unknown tenant reported spans")
	}
	var nilRec *Recorder
	if nilRec.ClassSpans(0).Spans[lifecycle.SpanTotal].Count != 0 || nilRec.TenantSpans(0).Spans[lifecycle.SpanTotal].Count != 0 {
		t.Error("nil recorder reported spans")
	}
}

// The default tenant's spans are derived (class sets minus the other
// tenants' sets); read while batches publish concurrently, the
// derivation must never see a bucket go negative — every snapshot's
// buckets add up to its count.
func TestDefaultTenantSpansConsistentUnderPublish(t *testing.T) {
	r := New(Options{Classes: 2})
	r.EnsureTenants(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ts := lifecycle.Stamps(i, i+1, i+3, i+7, i+15, i+15, i+31+i%1000)
				var acc Acc
				acc.Init(r)
				acc.Observe(int(i%2), g, 31, true, &ts, 0)
				acc.Observe(int(i%2), (g+1)%3, 31, true, &ts, 0)
				acc.Flush()
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		s := r.TenantSpans(0)
		for sp, h := range s.Spans {
			var sum int64
			for _, n := range h.Buckets {
				sum += n
			}
			if sum != h.Count {
				close(stop)
				wg.Wait()
				t.Fatalf("span %v: buckets total %d, count %d", lifecycle.Span(sp), sum, h.Count)
			}
		}
	}
	close(stop)
	wg.Wait()
}
