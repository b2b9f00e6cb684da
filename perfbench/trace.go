package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one call the benchmark made into a layer's public function
// (host clock), or one simulated request's Submitted→Completed interval
// (virtual clock). ID names the request: the slot index in the high 32
// bits and the slot's generation in the low 32, 0 when the call is not
// about one request. Parent indexes the enclosing span of the same lane,
// -1 for a root.
type Span struct {
	Layer      string
	ID         uint64
	Parent     int32
	Start, End int64
}

// ReqID packs a slot index and its generation into a span ID.
func ReqID(slot int, gen uint32) uint64 { return uint64(slot)<<32 | uint64(gen) }

// Agg sums every call of one layer, kept as a span or not.
type Agg struct {
	Calls int64
	Ns    int64
}

type openSpan struct {
	idx   int32 // index in spans, -1 when the span is not kept
	layer string
	start int64
}

// Lane records the spans of one goroutine (or one simulated process).
// A nil *Lane records nothing, so untraced runs pay one nil check per
// call site. Lanes draw kept spans from a shared budget; spans past it
// are not kept, but still count in the per-layer aggregates. Lanes
// sharing a budget must not be used concurrently.
type Lane struct {
	Name string
	Virt bool // spans are virtual-time ns
	// Overlapping is set once Adopt has joined lanes whose spans may
	// overlap without nesting; self time then comes from ExclusiveTime.
	Overlapping bool
	t0          time.Time
	budget      *int
	spans       []Span
	stack       []openSpan
	agg         map[string]*Agg
}

// traceEpoch is the zero of every host-clock lane, so spans of
// different lanes share one time axis.
var traceEpoch = time.Now()

// NewLane starts a host-clock lane drawing kept spans from budget.
func NewLane(name string, budget *int) *Lane {
	return &Lane{Name: name, t0: traceEpoch, budget: budget, agg: make(map[string]*Agg)}
}

// NewVirtLane starts a virtual-clock lane drawing kept spans from budget.
func NewVirtLane(name string, budget *int) *Lane {
	l := NewLane(name, budget)
	l.Virt = true
	return l
}

// keep reports whether one more span may be kept, and takes it.
func (l *Lane) keep() bool {
	if *l.budget <= 0 {
		return false
	}
	*l.budget--
	return true
}

func (l *Lane) now() int64 { return int64(time.Since(l.t0)) }

// Begin opens a span for a call into layer. Spans nest: the span open
// at the time of the call becomes the parent.
func (l *Lane) Begin(layer string) {
	if l == nil {
		return
	}
	start := l.now()
	parent := int32(-1)
	for i := len(l.stack) - 1; i >= 0; i-- {
		if l.stack[i].idx >= 0 {
			parent = l.stack[i].idx
			break
		}
	}
	idx := int32(-1)
	if l.keep() {
		idx = int32(len(l.spans))
		l.spans = append(l.spans, Span{Layer: layer, Parent: parent, Start: start})
	}
	l.stack = append(l.stack, openSpan{idx: idx, layer: layer, start: start})
}

// End closes the innermost open span, naming its request when id != 0.
func (l *Lane) End(id uint64) {
	if l == nil {
		return
	}
	end := l.now()
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.account(top.layer, end-top.start)
	if top.idx >= 0 {
		s := &l.spans[top.idx]
		s.End = end
		if id != 0 {
			s.ID = id
		}
	}
}

// Add records a finished root span with explicit endpoints (used for
// virtual-time request spans).
func (l *Lane) Add(layer string, id uint64, start, end int64) {
	if l == nil {
		return
	}
	l.account(layer, end-start)
	if l.keep() {
		l.spans = append(l.spans, Span{Layer: layer, ID: id, Parent: -1, Start: start, End: end})
	}
}

func (l *Lane) account(layer string, ns int64) {
	a := l.agg[layer]
	if a == nil {
		a = &Agg{}
		l.agg[layer] = a
	}
	a.Calls++
	a.Ns += ns
}

// Reset drops the lane's kept spans and aggregates, so that it covers
// only what follows. No span may be open.
func (l *Lane) Reset() {
	if l == nil {
		return
	}
	l.spans = l.spans[:0]
	clear(l.agg)
}

// Agg returns the aggregate of every call into layer on this lane.
func (l *Lane) Agg(layer string) Agg {
	if l == nil || l.agg[layer] == nil {
		return Agg{}
	}
	return *l.agg[layer]
}

// Adopt moves the kept spans of kids into l, making each kid's root
// spans children of l's span at index parent. It joins the lanes of
// simulated processes under the span of the engine run that executed
// them; their spans may overlap one another, which SelfTime allows.
func (l *Lane) Adopt(parent int32, kids ...*Lane) {
	if l == nil || parent < 0 || int(parent) >= len(l.spans) {
		return
	}
	for _, k := range kids {
		if k == nil {
			continue
		}
		off := int32(len(l.spans))
		for _, s := range k.spans {
			if s.Parent < 0 {
				s.Parent = parent
			} else {
				s.Parent += off
			}
			l.spans = append(l.spans, s)
		}
		k.spans = nil
		l.Overlapping = true
	}
}

// Spans returns the kept spans.
func (l *Lane) Spans() []Span {
	if l == nil {
		return nil
	}
	return l.spans
}

// SelfTime returns, per layer, the summed self time of spans: each
// span's duration minus the part of its interval covered by its
// children (overlapping children are counted once, and a child's time
// outside its parent is not subtracted).
func SelfTime(spans []Span) map[string]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make(map[string]int64)
	var iv [][2]int64
	for i, s := range spans {
		covered := int64(0)
		if kids := children[int32(i)]; len(kids) > 0 {
			iv = iv[:0]
			for _, k := range kids {
				a, b := spans[k].Start, spans[k].End
				if a < s.Start {
					a = s.Start
				}
				if b > s.End {
					b = s.End
				}
				if b > a {
					iv = append(iv, [2]int64{a, b})
				}
			}
			sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
			var curA, curB int64 = -1, -1
			for _, p := range iv {
				if curB < 0 || p[0] > curB {
					if curB >= 0 {
						covered += curB - curA
					}
					curA, curB = p[0], p[1]
				} else if p[1] > curB {
					curB = p[1]
				}
			}
			if curB >= 0 {
				covered += curB - curA
			}
		}
		self[s.Layer] += (s.End - s.Start) - covered
	}
	return self
}

// ExclusiveTime attributes every instant covered by spans to exactly
// one span, the open span that started last, and sums the attribution
// per layer. For strictly nested spans it equals SelfTime. For the
// joined lanes of simulated processes, which run one at a time, the
// span started last is the running call's, so a call parked in virtual
// time stops accruing host time while another process's call runs.
func ExclusiveTime(spans []Span) map[string]int64 {
	type edge struct {
		at    int64
		start bool
		i     int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].start && edges[b].start // close before open
	})
	out := make(map[string]int64)
	var open []int // open spans in start order; closed ones are removed
	prev := int64(0)
	for _, e := range edges {
		if n := len(open); n > 0 {
			out[spans[open[n-1]].Layer] += e.at - prev
		}
		prev = e.at
		if e.start {
			open = append(open, e.i)
			continue
		}
		for j := len(open) - 1; j >= 0; j-- {
			if open[j] == e.i {
				open = append(open[:j], open[j+1:]...)
				break
			}
		}
	}
	return out
}

// RootTime sums the durations of the root spans.
func RootTime(spans []Span) int64 {
	var t int64
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.End - s.Start
		}
	}
	return t
}

// WriteSpans writes every kept span of lanes to path as tab-separated
// lines: lane, clock, layer, id, parent, start_ns, end_ns.
func WriteSpans(path string, lanes []*Lane) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane\tclock\tlayer\tid\tparent\tstart_ns\tend_ns")
	for _, l := range lanes {
		if l == nil {
			continue
		}
		clock := "host"
		if l.Virt {
			clock = "virt"
		}
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n", l.Name, clock, s.Layer, s.ID, s.Parent, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
