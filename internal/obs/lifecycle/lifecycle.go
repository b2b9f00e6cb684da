// Package lifecycle models a request's life through an asynchronous
// move pipeline — seven stage stamps, submit → flushed → dispatched →
// copy start/end → completed → retrieved — and derives per-stage
// latency histograms (spans) from them: the latency-budget attribution
// the paper's Section 6 builds its whole argument on, turned into an
// always-on instrument.
//
// The pipelines keep their own stamps; this package only derives and
// aggregates them. The realtime device stamps every request in plain
// Request fields and folds the derived spans through a goroutine-local
// SpanFold, published into shared SpanSets once per retrieve batch
// (internal/obs/flight's Acc), so an armed device pays plain arithmetic
// per request and a handful of atomic adds per batch. The simulated
// core device under swapd and streamrt carries stage times on its
// MovReq records and feeds a SpanSet directly through ObserveStamps, on
// virtual time.
//
// Lifecycle and ChromeTraceJSON render stamp vectors (the flight
// recorder's captured outliers) as a Chrome trace_event timeline
// (chrome://tracing, Perfetto).
//
// Everything here that is shared is lock-free, safe from any goroutine,
// and nil-safe, so instrumentation sites need no enabled-checks.
package lifecycle

import (
	"encoding/json"
	"fmt"

	"memif/internal/obs"
)

// Stage is one timestamped point in a request's life.
type Stage uint8

// The stage model. A pipeline stamps the subset it has: the realtime
// device stamps all of them; a request failing off-protocol (e.g.
// ErrNoSlots at the flush) skips straight from StageSubmit to
// StageCompleted, and span derivation skips spans with a missing
// endpoint.
const (
	// StageSubmit: the request entered the staging queue.
	StageSubmit Stage = iota
	// StageFlushed: the flush moved it staging → submission queue.
	StageFlushed
	// StageDispatched: the worker dequeued it and began chunking.
	StageDispatched
	// StageCopyStart: the first chunk reached a transfer controller.
	StageCopyStart
	// StageCopyEnd: the last chunk finished copying.
	StageCopyEnd
	// StageCompleted: the completion was posted (Release + Notify).
	StageCompleted
	// StageRetrieved: the application collected the completion.
	StageRetrieved

	NumStages int = iota
)

// stageNames index by Stage.
var stageNames = [NumStages]string{
	"submit", "flushed", "dispatched", "copy_start", "copy_end", "completed", "retrieved",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Span is one derived stage-latency: the time between two stages (or,
// for the chunk-level spans, a directly observed queue wait).
type Span uint8

// The attribution buckets of the Section 6 latency budget, pipeline
// edition.
const (
	// SpanStagingWait: submit → flushed; time spent on a staging shard
	// waiting for a flush.
	SpanStagingWait Span = iota
	// SpanDispatchWait: flushed → dispatched; time on the submission
	// queue waiting for the worker.
	SpanDispatchWait
	// SpanRingWait: dispatched → copy start of a request that took the
	// controller rings (not FlagInline) — how long its first chunk sat
	// on a dispatch ring.
	SpanRingWait
	// SpanStealDelay: the ring wait of requests with at least one chunk
	// stolen by a non-owning controller (FlagStolen) — how long work sat
	// before stealing saved it.
	SpanStealDelay
	// SpanCopy: copy start → copy end; the actual byte-moving window,
	// across every controller touching the request.
	SpanCopy
	// SpanCompletionDwell: completed → retrieved; time the finished
	// request sat on the completion queue.
	SpanCompletionDwell
	// SpanTotal: submit → retrieved.
	SpanTotal

	NumSpans int = iota
)

var spanNames = [NumSpans]string{
	"staging_wait", "dispatch_wait", "ring_wait", "steal_delay",
	"copy", "completion_dwell", "total",
}

func (s Span) String() string {
	if int(s) < NumSpans {
		return spanNames[s]
	}
	return fmt.Sprintf("span(%d)", uint8(s))
}

// SpanNames returns the metric-label names of every span, indexed by
// Span.
func SpanNames() [NumSpans]string { return spanNames }

// stageSpans lists the spans derived from stage pairs alone
// (SpanRingWait / SpanStealDelay also need the path flags).
var stageSpans = [...]struct {
	span     Span
	from, to Stage
}{
	{SpanStagingWait, StageSubmit, StageFlushed},
	{SpanDispatchWait, StageFlushed, StageDispatched},
	{SpanCopy, StageCopyStart, StageCopyEnd},
	{SpanCompletionDwell, StageCompleted, StageRetrieved},
	{SpanTotal, StageSubmit, StageRetrieved},
}

// Outcome classifies a finished lifecycle.
type Outcome uint8

// Lifecycle outcomes.
const (
	OutcomeOK Outcome = iota
	OutcomeCanceled
	OutcomeExpired
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeExpired:
		return "expired"
	default:
		return "failed"
	}
}

// SpanSet is a bundle of per-span latency histograms, fed per request
// through ObserveStamps or per batch through a SpanFold.
type SpanSet struct {
	spans [NumSpans]obs.Histogram
}

// Observe records one duration (ns, wall or virtual) for a span.
// Nil-safe; negative durations are clamped to zero rather than dropped,
// so a torn clock can never hide a sample.
func (s *SpanSet) Observe(sp Span, d int64) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.spans[sp].Observe(d)
}

// ObserveStamps derives and records every stage-pair span whose
// endpoints are both stamped (nonzero). SpanRingWait and SpanStealDelay
// are untouched: they need the path flags a SpanFold takes.
func (s *SpanSet) ObserveStamps(ts *[NumStages]int64) {
	if s == nil {
		return
	}
	for _, d := range stageSpans {
		from, to := ts[d.from], ts[d.to]
		if from == 0 || to == 0 {
			continue
		}
		s.Observe(d.span, to-from)
	}
}

// Stamps assembles a stage-stamp array from the seven stage times of a
// request record (0 = stage never reached) — the bridge for subsystems
// whose requests carry their own timestamps, like the simulated core
// device's MovReq. Feed the result to ObserveStamps.
func Stamps(submit, flushed, dispatched, copyStart, copyEnd, completed, retrieved int64) [NumStages]int64 {
	var ts [NumStages]int64
	ts[StageSubmit] = submit
	ts[StageFlushed] = flushed
	ts[StageDispatched] = dispatched
	ts[StageCopyStart] = copyStart
	ts[StageCopyEnd] = copyEnd
	ts[StageCompleted] = completed
	ts[StageRetrieved] = retrieved
	return ts
}

// Snapshot captures every span histogram. Nil-safe (zero snapshot).
func (s *SpanSet) Snapshot() SpanSnapshot {
	var out SpanSnapshot
	if s == nil {
		return out
	}
	for i := range s.spans {
		out.Spans[i] = s.spans[i].Snapshot()
	}
	return out
}

// Span captures one span's histogram — the cheap accessor for a
// periodic consumer that needs a single span, not the whole set.
// Nil-safe (zero snapshot).
func (s *SpanSet) Span(sp Span) obs.HistogramSnapshot {
	if s == nil {
		return obs.HistogramSnapshot{}
	}
	return s.spans[sp].Snapshot()
}

// SpanSnapshot is a point-in-time copy of a SpanSet, indexed by Span.
type SpanSnapshot struct {
	Spans [NumSpans]obs.HistogramSnapshot
}

// Delta returns the per-span samples accumulated between prev and s —
// the steady-state window of a benchmark.
func (s SpanSnapshot) Delta(prev SpanSnapshot) SpanSnapshot {
	var out SpanSnapshot
	for i := range s.Spans {
		out.Spans[i] = s.Spans[i].Delta(prev.Spans[i])
	}
	return out
}

// Add returns the union of two snapshots' samples, span by span — the
// merge of per-class sets into a device-wide one.
func (s SpanSnapshot) Add(o SpanSnapshot) SpanSnapshot {
	for i := range s.Spans {
		s.Spans[i] = s.Spans[i].Add(o.Spans[i])
	}
	return s
}

// Request-path flags — how the request was served, for span derivation
// (SpanFold.Add) and outlier forensics ("slow because it was NOT inlined and
// its chunks sat un-stolen").
const (
	// FlagInline: the worker copied the request inline instead of
	// dispatching chunks to the controllers.
	FlagInline uint32 = 1 << 0
	// FlagStolen: at least one chunk was stolen by a non-owning
	// controller.
	FlagStolen uint32 = 1 << 1
)

// Lifecycle is one request's rendered life: the slot it ran in, an
// order stamp (the flight recorder's capture seq), the payload size, the priority class (0 on pipelines without
// classes), the outcome, the path flags, and the raw stage timestamps
// (0 = stage never reached).
type Lifecycle struct {
	Seq     uint64
	Slot    int
	Class   int
	Bytes   int64
	Outcome Outcome
	Flags   uint32
	TS      [NumStages]int64
}

// SpanFold is a goroutine-local SpanSet batch: Add derives one
// request's spans with plain arithmetic, and Publish merges the batch
// into shared SpanSets with a few atomic adds per span, however many
// requests it holds. It holds up to obs.MaxTally requests; publish it
// when Full. The zero value is empty and ready; not safe for concurrent
// use.
type SpanFold struct {
	n     int
	spans [NumSpans]obs.Tally
}

// Add folds one request's spans: every stage-pair span whose endpoints
// are both stamped (nonzero), and — when the request took the
// controller rings (flags without FlagInline) and reached both
// dispatch and copy start — SpanRingWait, doubled into SpanStealDelay
// when a chunk was stolen (FlagStolen). Negative durations (stamps
// from amortized clocks on different goroutines) clamp to zero.
func (f *SpanFold) Add(ts *[NumStages]int64, flags uint32) {
	for _, d := range stageSpans {
		from, to := ts[d.from], ts[d.to]
		if from == 0 || to == 0 {
			continue
		}
		f.observe(d.span, to-from)
	}
	disp, cs := ts[StageDispatched], ts[StageCopyStart]
	if flags&FlagInline == 0 && disp != 0 && cs != 0 {
		f.observe(SpanRingWait, cs-disp)
		if flags&FlagStolen != 0 {
			f.observe(SpanStealDelay, cs-disp)
		}
	}
	f.n++
}

func (f *SpanFold) observe(sp Span, d int64) {
	if d < 0 {
		d = 0
	}
	f.spans[sp].Observe(d)
}

// Full reports whether the fold holds its capacity of requests.
func (f *SpanFold) Full() bool { return f.n >= obs.MaxTally }

// Publish merges the batch into a and then, when b is non-nil, into b
// — say, a request class's set and a tenant's — and empties it.
func (f *SpanFold) Publish(a, b *SpanSet) {
	if f.n == 0 {
		return
	}
	for i := range f.spans {
		f.spans[i].Publish(&a.spans[i])
		if b != nil {
			f.spans[i].Publish(&b.spans[i])
		}
	}
	*f = SpanFold{}
}

// Snapshot is a pipeline's stage-latency attribution: the per-span
// histograms over every observed request, and the same split by
// priority class.
type Snapshot struct {
	// Spans holds the per-stage latency histograms.
	Spans SpanSnapshot
	// ClassSpans holds the same histograms split by priority class,
	// indexed by class; empty when the pipeline keeps no spans.
	ClassSpans []SpanSnapshot
}

// chromeEvent is one trace_event entry in the JSON Object Format that
// chrome://tracing and Perfetto load. Timestamps and durations are
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// TraceGroup is one process row of a Chrome trace: a named subsystem
// and its captured lifecycles.
type TraceGroup struct {
	Process    string
	Lifecycles []Lifecycle
}

// ChromeTraceJSON renders captured lifecycles as Chrome trace_event
// JSON: one complete ("X") event per derivable span, one thread row per
// request slot, timestamps rebased to the earliest submit so the
// timeline starts near zero. The result loads directly into
// chrome://tracing or ui.perfetto.dev.
func ChromeTraceJSON(process string, lcs []Lifecycle) ([]byte, error) {
	return ChromeTraceGroupsJSON([]TraceGroup{{Process: process, Lifecycles: lcs}})
}

// ChromeTraceGroupsJSON renders several subsystems into one timeline,
// one Chrome "process" per group, sharing a common time base.
func ChromeTraceGroupsJSON(groups []TraceGroup) ([]byte, error) {
	var base int64
	for _, g := range groups {
		for _, lc := range g.Lifecycles {
			if t := lc.TS[StageSubmit]; t != 0 && (base == 0 || t < base) {
				base = t
			}
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	out := chromeTrace{DisplayTimeUnit: "ns"}
	for gi, g := range groups {
		pid := gi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Phase: "M", PID: pid,
			Args: map[string]any{"name": g.Process},
		})
		for _, lc := range g.Lifecycles {
			for _, d := range stageSpans {
				if d.span == SpanTotal {
					continue // the per-stage rows already tile the total
				}
				from, to := lc.TS[d.from], lc.TS[d.to]
				if from == 0 || to == 0 {
					continue
				}
				if to < from {
					to = from
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: d.span.String(), Cat: "memif", Phase: "X",
					TS: us(from), Dur: float64(to-from) / 1e3,
					PID: pid, TID: lc.Slot,
					Args: map[string]any{
						"seq": lc.Seq, "bytes": lc.Bytes, "class": lc.Class,
						"outcome": lc.Outcome.String(),
					},
				})
			}
		}
	}
	return json.Marshal(out)
}
