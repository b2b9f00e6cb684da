package realtime

import (
	"bytes"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
)

// checkMonotone asserts a request's assembled stage vector is complete
// and non-decreasing in stage order — the core stamping invariant:
// whatever path a request takes (clean, canceled, failed, stolen
// chunks), time can only move forward through its stamps.
func checkMonotone(t *testing.T, r *Request) {
	t.Helper()
	ts, _ := r.stamps(r.submitted.Load(), time.Now().UnixNano())
	for st := 0; st < lifecycle.NumStages; st++ {
		if ts[st] == 0 {
			t.Errorf("slot %d: stage %v unstamped: %v", r.idx, lifecycle.Stage(st), ts)
		}
		if st > 0 && ts[st] < ts[st-1] {
			t.Errorf("slot %d: stage %v at %d precedes %v at %d",
				r.idx, lifecycle.Stage(st), ts[st], lifecycle.Stage(st-1), ts[st-1])
		}
	}
}

// TestLifecycleCleanPipelineFullStamps checks that on an unchaotic
// chunked run every request's stage vector is complete and ordered,
// marked as a ring-path copy, and that the span histograms cover every
// attribution bucket with one total per retrieved request.
func TestLifecycleCleanPipelineFullStamps(t *testing.T) {
	d := Open(Options{NumReqs: 32, Controllers: 2, StagingShards: 2, ChunkBytes: 8 << 10})
	defer d.Close()

	const n = 64
	src := bytes.Repeat([]byte{3}, 32<<10)
	for done := 0; done < n; {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
			checkMonotone(t, got)
			if got.inline {
				t.Errorf("slot %d: a 4-chunk request marked inline", got.idx)
			}
			d.FreeRequest(got)
			done++
		}
	}

	s := d.Stats().Lifecycle
	for _, span := range []lifecycle.Span{
		lifecycle.SpanStagingWait, lifecycle.SpanDispatchWait, lifecycle.SpanRingWait,
		lifecycle.SpanCopy, lifecycle.SpanCompletionDwell, lifecycle.SpanTotal,
	} {
		if c := s.Spans.Spans[span].Count; c != n {
			t.Errorf("span %v has %d samples, want one per request (%d)", span, c, n)
		}
	}
}

// TestLifecycleSpansCountEveryRequest pins the exact-accounting claim:
// after N retrieved requests across classes and tenants, the device's
// total span holds N samples, the per-class sets add up to the device
// set, and so do the per-tenant sets.
func TestLifecycleSpansCountEveryRequest(t *testing.T) {
	d := Open(Options{NumReqs: 64, Controllers: 2, StagingShards: 2})
	defer d.Close()
	ten, err := d.OpenTenant(TenantConfig{Name: "t1", SlotQuota: 64})
	if err != nil {
		t.Fatal(err)
	}

	const rounds, batch = 12, 8
	// Sizes of 6..48 KB straddle the default inline threshold, so both
	// the inline and the ring path feed the spans.
	src := make([]byte, 48<<10)
	buf := make([]*Request, batch)
	retrieved := 0
	for round := 0; round < rounds; round++ {
		reqs := make([]*Request, batch)
		for i := range reqs {
			r := d.AllocRequest()
			size := (i + 1) * 6 << 10
			r.Src, r.Dst = src[:size], make([]byte, size)
			r.Class = Class(i % NumClasses)
			reqs[i] = r
		}
		submit := d.SubmitBatch
		if round%2 == 1 {
			submit = ten.SubmitBatch
		}
		if err := submit(reqs); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < batch; {
			k := d.RetrieveCompletedBatch(buf)
			for _, r := range buf[:k] {
				if r.Err != nil {
					t.Fatalf("request failed: %v", r.Err)
				}
				d.FreeRequest(r)
			}
			got += k
			if k == 0 {
				d.Poll(10 * time.Millisecond)
			}
		}
		retrieved += batch
	}

	st := d.Stats()
	all := st.Lifecycle.Spans
	if c := all.Spans[lifecycle.SpanTotal].Count; c != int64(retrieved) {
		t.Fatalf("total span count = %d, want %d retrieved requests", c, retrieved)
	}
	if len(st.Lifecycle.ClassSpans) != NumClasses {
		t.Fatalf("ClassSpans len = %d, want %d", len(st.Lifecycle.ClassSpans), NumClasses)
	}
	var classes, tenants lifecycle.SpanSnapshot
	for _, cs := range st.Lifecycle.ClassSpans {
		if cs.Spans[lifecycle.SpanTotal].Count == 0 {
			t.Error("a class that carried requests has no spans")
		}
		classes = classes.Add(cs)
	}
	for _, ts := range st.Tenants {
		if ts.Spans.Spans[lifecycle.SpanTotal].Count != int64(retrieved/2) {
			t.Errorf("tenant %s total = %d, want %d", ts.Name, ts.Spans.Spans[lifecycle.SpanTotal].Count, retrieved/2)
		}
		tenants = tenants.Add(ts.Spans)
	}
	if classes != all {
		t.Error("class span sets do not add up to the device set")
	}
	if tenants != all {
		t.Error("tenant span sets do not add up to the device set")
	}
}

// TestArmedStampsFreshAfterIdleGaps pins the idle-clock fix: the worker
// and controller clocks are amortized across stamps, and an idle gap
// must not leave them stale. Sequential ring-path requests with a 2 ms
// pause every five: the first request after each pause must carry
// dispatch and copy-start stamps no older than its own submit stamp.
func TestArmedStampsFreshAfterIdleGaps(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1, QoS: QoSOptions{InlineThreshold: -1}})
	defer d.Close()

	src := make([]byte, 4<<10)
	dst := make([]byte, len(src))
	for i := 0; i < 40; i++ {
		gap := i%5 == 0
		if gap {
			time.Sleep(2 * time.Millisecond)
		}
		r := d.AllocRequest()
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, d, 1)[0]
		sub := got.submitted.Load()
		if gap && got.dispatchedNs < sub {
			t.Errorf("request %d: dispatch stamp %.1fµs before submit", i, float64(sub-got.dispatchedNs)/1e3)
		}
		if cs := got.copyStartNs.Load(); gap && cs < sub {
			t.Errorf("request %d: copy-start stamp %.1fµs before submit", i, float64(sub-cs)/1e3)
		}
		d.FreeRequest(got)
	}
}

// TestLifecycleMonotoneUnderCancelChaos freezes the controllers, lands
// a cancel storm mid-pipeline, releases, and requires every request —
// clean or canceled — to keep a complete monotone stage vector, and the
// spans to count every request's total but only the clean ones' copies.
func TestLifecycleMonotoneUnderCancelChaos(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs: 32, Controllers: 2, ChunkBytes: 1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	})
	defer d.Close()
	defer once.Do(func() { close(stall) })

	const n = 8
	reqs := make([]*Request, 0, n)
	src := bytes.Repeat([]byte{7}, 4<<10)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		if i%2 == 0 {
			d.Cancel(r)
		}
	}
	once.Do(func() { close(stall) })
	got := drainAll(t, d, n)

	okCount, canceledCount := 0, 0
	for _, r := range got {
		checkMonotone(t, r)
		switch {
		case r.Err == nil:
			okCount++
		case errors.Is(r.Err, ErrCanceled):
			canceledCount++
		default:
			t.Errorf("unexpected outcome %v for slot %d", r.Err, r.idx)
		}
		d.FreeRequest(r)
	}
	if canceledCount == 0 {
		t.Error("cancel storm produced no canceled requests")
	}
	s := d.Stats().Lifecycle
	if c := s.Spans.Spans[lifecycle.SpanTotal].Count; c != n {
		t.Errorf("total span count = %d, want %d", c, n)
	}
	if c := s.Spans.Spans[lifecycle.SpanCopy].Count; c != int64(okCount) {
		t.Errorf("copy span count = %d, want only the %d clean requests", c, okCount)
	}
}

// TestLifecycleErrNoSlotsPath forces the staging→submission flush to
// exhaust: requests complete with ErrNoSlots having never been
// dispatched, and the spans must reflect that — a total and a dwell per
// request, no dispatch or copy samples for stages never reached.
func TestLifecycleErrNoSlotsPath(t *testing.T) {
	d := Open(Options{
		NumReqs: 8, Controllers: 1, StagingShards: 1,
		Chaos: &ChaosHooks{
			FlushEnqueue: func(idx uint32) bool { return true },
		},
	})
	defer d.Close()

	const n = 4
	src := make([]byte, 4096)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	got := drainAll(t, d, n)
	failed := 0
	for _, r := range got {
		checkMonotone(t, r)
		if errors.Is(r.Err, ErrNoSlots) {
			failed++
		}
		d.FreeRequest(r)
	}
	if failed == 0 {
		t.Fatal("forced exhaustion produced no ErrNoSlots completions")
	}
	s := d.Stats().Lifecycle
	for _, span := range []lifecycle.Span{lifecycle.SpanDispatchWait, lifecycle.SpanRingWait, lifecycle.SpanCopy} {
		if c := s.Spans.Spans[span].Count; c != int64(n-failed) {
			t.Errorf("span %v has %d samples with %d of %d dispatches exhausted", span, c, failed, n)
		}
	}
	if c := s.Spans.Spans[lifecycle.SpanTotal].Count; c != n {
		t.Errorf("total span count = %d, want %d", c, n)
	}
}

// TestLifecycleDisabled checks Flight.Disable is the one observability
// switch: no stage spans anywhere, no recorder snapshot.
func TestLifecycleDisabled(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1, Flight: flight.Options{Disable: true}})
	defer d.Close()
	src := make([]byte, 4096)
	r := d.AllocRequest()
	r.Src, r.Dst = src, make([]byte, len(src))
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, d, 1)[0]
	d.FreeRequest(got)
	s := d.Stats()
	if s.Flight.Enabled || s.Lifecycle.ClassSpans != nil || s.Lifecycle.Spans.Spans[lifecycle.SpanTotal].Count != 0 {
		t.Errorf("disabled recorder recorded: %+v", s.Lifecycle)
	}
	if c := s.Tenants[0].Spans.Spans[lifecycle.SpanTotal].Count; c != 0 {
		t.Errorf("disabled recorder fed %d tenant spans", c)
	}
}

// TestFlightOverheadGuard is the CI benchmark guard for the device's
// one observability path: with the flight recorder armed at defaults
// (stage stamps on every request, span folding and threshold
// comparison on every completion, SLO accounting, watchdog monitor
// running), the acceptance benchmark configuration must run within 2%
// of the recorder-disabled build. Gated behind MEMIF_BENCH_GUARD
// because it spends several benchmark windows.
func TestFlightOverheadGuard(t *testing.T) {
	if os.Getenv("MEMIF_BENCH_GUARD") == "" {
		t.Skip("set MEMIF_BENCH_GUARD=1 to run the flight-overhead guard")
	}
	measure := func(disable bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			benchConcurrentSubmit(b, 8, 4<<10, 16, Options{
				NumReqs: 512, Controllers: 4, StagingShards: 4,
				Flight: flight.Options{Disable: disable},
			})
		})
		return float64(r.NsPerOp())
	}
	// Interleave the two configurations and keep each one's minimum, so
	// machine-load drift hits both sides equally and the lower-bound
	// ns/op comparison stays stable.
	off, on := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 6; round++ {
		if v := measure(true); v < off {
			off = v
		}
		if v := measure(false); v < on {
			on = v
		}
	}
	ratio := on / off
	t.Logf("flight-disabled %.0f ns/op, capture armed %.0f ns/op, ratio %.4f", off, on, ratio)
	if ratio > 1.02 {
		t.Errorf("armed flight recorder costs %.1f%% (> 2%% budget)", (ratio-1)*100)
	}
}
