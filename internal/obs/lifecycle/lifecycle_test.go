package lifecycle

import (
	"encoding/json"
	"testing"
)

// TestFullCaptureAndSpans folds one fully stamped ring-path request
// with a stolen chunk and checks every derived span, ring wait and
// steal delay included.
func TestFullCaptureAndSpans(t *testing.T) {
	var f SpanFold
	ts := Stamps(100, 110, 130, 160, 200, 210, 260)
	f.Add(&ts, FlagStolen)
	var set, other SpanSet
	f.Publish(&set, &other)
	s := set.Snapshot()
	for span, want := range map[Span]int64{
		SpanStagingWait:     10,
		SpanDispatchWait:    20,
		SpanRingWait:        30,
		SpanStealDelay:      30,
		SpanCopy:            40,
		SpanCompletionDwell: 50,
		SpanTotal:           160,
	} {
		h := s.Spans[span]
		if h.Count != 1 || h.Sum != want {
			t.Errorf("span %s: count=%d sum=%d, want 1/%d", span, h.Count, h.Sum, want)
		}
	}
	if other.Snapshot() != s {
		t.Error("Publish fed its two targets different samples")
	}
	// Inline requests never touched a ring: no ring wait, no steal delay.
	f.Add(&ts, FlagInline|FlagStolen)
	f.Publish(&set, &other)
	s = set.Snapshot()
	if c := s.Spans[SpanRingWait].Count; c != 1 {
		t.Errorf("ring wait count = %d after an inline request, want 1", c)
	}
	if c := s.Spans[SpanCopy].Count; c != 2 {
		t.Errorf("copy count = %d, want 2", c)
	}
}

// TestMissingEndpointsSkipSpans: an ErrNoSlots-style failure goes
// submit -> completed directly; only spans with both endpoints may
// record.
func TestMissingEndpointsSkipSpans(t *testing.T) {
	var f SpanFold
	ts := Stamps(100, 0, 0, 0, 0, 150, 180)
	f.Add(&ts, 0)
	var set, other SpanSet
	f.Publish(&set, &other)
	s := set.Snapshot()
	for _, span := range []Span{SpanStagingWait, SpanDispatchWait, SpanRingWait, SpanCopy} {
		if c := s.Spans[span].Count; c != 0 {
			t.Errorf("span %s recorded %d samples with missing endpoints", span, c)
		}
	}
	if c := s.Spans[SpanCompletionDwell].Count; c != 1 {
		t.Errorf("completion dwell count = %d, want 1", c)
	}
	if c := s.Spans[SpanTotal].Count; c != 1 {
		t.Errorf("total count = %d, want 1", c)
	}
}

// TestPerClassSpans publishes folds into per-class sets and checks the
// merged snapshot equals what one set fed every request would hold —
// the device-wide view is the class sets added up — and that a fold at
// capacity reports Full.
func TestPerClassSpans(t *testing.T) {
	var classes [3]SpanSet
	var all, tenant SpanSet
	for i := 0; i < 300; i++ {
		base := int64(1000 * (i + 1))
		ts := Stamps(base, base+int64(i), base+2*int64(i), base+3*int64(i), base+4*int64(i), base+5*int64(i), base+6*int64(i))
		var f SpanFold
		f.Add(&ts, 0)
		f.Publish(&classes[i%3], &tenant)
		all.ObserveStamps(&ts)
		all.Observe(SpanRingWait, int64(i))
	}
	var merged SpanSnapshot
	for i := range classes {
		merged = merged.Add(classes[i].Snapshot())
	}
	if merged != all.Snapshot() {
		t.Errorf("merged class sets differ from one set fed every request:\n merged %v\n direct %v",
			merged.Spans[SpanTotal], all.Snapshot().Spans[SpanTotal])
	}
	if tenant.Snapshot() != merged {
		t.Error("tenant set differs from the merged class sets")
	}
	if c := classes[1].Snapshot().Spans[SpanTotal].Count; c != 100 {
		t.Errorf("class 1 total count = %d, want 100", c)
	}
	var f SpanFold
	ts := Stamps(1, 2, 3, 4, 5, 6, 7)
	for !f.Full() {
		f.Add(&ts, 0)
	}
	f.Publish(&all, &tenant)
	if f.Full() {
		t.Error("Publish left the fold full")
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	var ss SpanSet
	ss.Observe(SpanCopy, -5)
	s := ss.Snapshot()
	if h := s.Spans[SpanCopy]; h.Count != 1 || h.Sum != 0 {
		t.Errorf("negative duration: count=%d sum=%d, want 1/0", h.Count, h.Sum)
	}
}

func TestNilSafety(t *testing.T) {
	var ss *SpanSet
	ss.Observe(SpanCopy, 1)
	ts := Stamps(1, 2, 3, 4, 5, 6, 7)
	ss.ObserveStamps(&ts)
	if s := ss.Snapshot(); s.Spans[SpanTotal].Count != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	var lcs []Lifecycle
	for slot := 0; slot < 2; slot++ {
		base := int64(1000 * (slot + 1))
		lcs = append(lcs, Lifecycle{
			Seq: uint64(slot + 1), Slot: slot, Bytes: 4096, Outcome: OutcomeOK,
			TS: Stamps(base, base+10, base+20, base+30, base+90, base+95, base+120),
		})
	}
	blob, err := ChromeTraceGroupsJSON([]TraceGroup{
		{Process: "a", Lifecycles: lcs},
		{Process: "b", Lifecycles: lcs},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	meta, spans := 0, 0
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			spans++
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("negative ts/dur on %s: %f/%f", ev.Name, ev.TS, ev.Dur)
			}
			if ev.Args["outcome"] != "ok" {
				t.Errorf("outcome arg = %v", ev.Args["outcome"])
			}
		}
	}
	if meta != 2 {
		t.Errorf("metadata events = %d, want one per group", meta)
	}
	// 2 groups x 2 lifecycles x 4 stage-pair spans (total skipped).
	if spans != 16 {
		t.Errorf("span events = %d, want 16", spans)
	}
	if len(pids) != 2 {
		t.Errorf("pids = %v, want 2 distinct", pids)
	}
}
