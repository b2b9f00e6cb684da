package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/realtime"
)

// The realtime workloads drive internal/realtime on the wall clock from
// one load goroutine (the same goroutine submits, retrieves and
// verifies), so the generator never needs more CPUs than nproc.

const (
	rtSlots     = 256     // realtime.DefaultOptions().NumReqs
	smallBytes  = 4 << 10 // small request payload
	bulkBytes   = 1 << 20 // scavenger request payload
	subWindows  = 40      // a run's window is cut into this many parts; metrics are summarized over parts
	setupReps   = 8       // device opens timed before each segment; setup_s is the median over a run's segments
	spanCap     = 200_000 // spans kept per traced pass
	bulkCookie  = 1 << 63
	smallDepth  = 128        // small_iops requests outstanding
	smallBatch  = 16         // small_iops requests per SubmitBatch
	fgRate      = 5_000      // fg_over_bulk foreground requests per second
	bulkDepth   = 2          // far below the scavenger admission share (128 slots)
	spinNs      = 150_000    // the generator spins, rather than polls, this close to a due time
	bulkSampleN = 8          // timed runs verify one bulk request in this many
	stampStride = 512        // a fresh sequence word heads every block of this many payload bytes
	latRangeNs  = 20_000_000 // latencies are counted one by one below this
	latUnitNs   = 1_000      // and read to the microsecond
)

// newPartLog makes the latency log of one part, or of a run.
func newPartLog() *LatencyLog { return NewLatencyLog(latRangeNs, latUnitNs) }

// stamp writes seq at the head of every stampStride block of src and
// clears the same words of dst. A copy that skips any block of a
// request, a whole chunk or part of one, then leaves dst differing from
// src, although the slot's buffers are reused for every request.
func stamp(src, dst []byte, seq uint64) {
	for off := 0; off+8 <= len(src); off += stampStride {
		binary.LittleEndian.PutUint64(src[off:], seq)
		clear(dst[off : off+8])
	}
}

// rig is one opened device plus per-slot seeded payload buffers.
type rig struct {
	d        *realtime.Device
	src, dst [][]byte // per slot, smallBytes each
	bulkSrc  [][]byte
	bulkDst  [][]byte
}

func openRig(rng *rand.Rand, withBulk bool) *rig {
	g := &rig{d: realtime.Open(realtime.DefaultOptions())}
	src := make([]byte, rtSlots*smallBytes)
	rng.Read(src)
	dst := make([]byte, rtSlots*smallBytes)
	for i := 0; i < rtSlots; i++ {
		g.src = append(g.src, src[i*smallBytes:(i+1)*smallBytes])
		g.dst = append(g.dst, dst[i*smallBytes:(i+1)*smallBytes])
	}
	if withBulk {
		for i := 0; i < bulkDepth; i++ {
			b := make([]byte, bulkBytes)
			rng.Read(b)
			g.bulkSrc = append(g.bulkSrc, b)
			g.bulkDst = append(g.bulkDst, make([]byte, bulkBytes))
		}
	}
	return g
}

// openRigTimed opens setupReps rigs, closing all but the last, and
// returns it with the open times, less the share the hypervisor stole.
func openRigTimed(rng *rand.Rand, withBulk bool) (*rig, []float64) {
	var g *rig
	times := make([]float64, 0, setupReps)
	w := startWindow()
	for i := 0; i < setupReps; i++ {
		if g != nil {
			g.d.Close()
			g = nil
			runtime.GC() // keep closed devices from piling up in the heap
		}
		t := time.Now()
		g = openRig(rng, withBulk)
		times = append(times, time.Since(t).Seconds())
	}
	f := unstolen(w.ticks())
	for i := range times {
		times[i] *= f
	}
	return g, times
}

// classify counts a completion's error under its failure kind.
func classify(a *Accounting, err error) {
	switch {
	case errors.Is(err, realtime.ErrOverload):
		a.Fail(FailOverload)
	case errors.Is(err, realtime.ErrNoSlots):
		a.Fail(FailNoSlots)
	case errors.Is(err, realtime.ErrCanceled):
		a.Fail(FailCanceled)
	case errors.Is(err, realtime.ErrDeadline):
		a.Fail(FailDeadline)
	default:
		a.Fail(FailOtherErr)
	}
}

// subWin accumulates one part of the measured window.
type subWin struct {
	w        window
	ops      int64       // successful completions
	bulk     int64       // payload of successful bulk completions
	lat      *LatencyLog // the part's latency samples
	steal    float64     // machine steal ticks on busy CPUs over the part
	res      map[string]float64
	finished bool
}

func (s *subWin) finish() {
	busy, steal := s.w.ticks()
	s.steal = steal
	el := time.Since(s.w.wall).Seconds() * unstolen(busy, steal)
	s.res = map[string]float64{
		"ops_per_s":     float64(s.ops) / el,
		"bulk_gb_per_s": float64(s.bulk) / el / 1e9,
		"cpu_cores":     (cpuTime() - s.w.cpu).Seconds() / el,
	}
	s.finished = true
}

// windows runs a warm-up, then n equal parts over seconds.
type windows struct {
	t0       time.Time
	warmEnd  int64
	part     int64
	n        int
	cur      int // -1 during warm-up
	parts    []*subWin
	onSwitch func(idx int)
}

func newWindows(seconds float64, n int) *windows {
	total := int64(seconds * 1e9)
	warm := total / 10
	if warm > int64(500*time.Millisecond) {
		warm = int64(500 * time.Millisecond)
	}
	return &windows{t0: time.Now(), warmEnd: warm, part: total / int64(n), n: n, cur: -1}
}

func (ws *windows) now() int64 { return int64(time.Since(ws.t0)) }

// tick advances to the part containing now; false once the window is over.
func (ws *windows) tick(now int64) bool {
	if now < ws.warmEnd {
		return true
	}
	idx := int((now - ws.warmEnd) / ws.part)
	if idx == ws.cur {
		return true
	}
	if ws.cur >= 0 {
		ws.parts[ws.cur].finish()
	}
	if idx >= ws.n {
		ws.cur = ws.n
		return false
	}
	ws.cur = idx
	ws.parts = append(ws.parts, &subWin{w: startWindow(), lat: newPartLog()})
	if ws.onSwitch != nil {
		ws.onSwitch(idx)
	}
	return true
}

// active is the part being measured, nil during warm-up and drain.
func (ws *windows) active() *subWin {
	if ws.cur < 0 || ws.cur >= len(ws.parts) {
		return nil
	}
	return ws.parts[ws.cur]
}

// calmPercentiles reads a run's latency percentiles: p50 and p99 over
// the half of its finished parts with the fewest machine steal ticks
// (earlier parts first among equals), and p99 over all of them. A
// stolen CPU stalls whatever goroutine it held: in one run on the 2-vCPU
// build host, a part's p99 rose from 0.38 ms with no steal tick to 1-4 ms
// with 8 or more. The choice of parts looks at the host only, never at
// the latencies, so a stall of the program's own reaches the kept parts
// as often as the others. kept is the number of parts pooled.
func calmPercentiles(parts []*subWin) (p50, p99, all99 Quantile, kept int) {
	var order []*subWin
	for _, p := range parts {
		if p.finished {
			order = append(order, p)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].steal < order[j].steal })
	kept = (len(order) + 1) / 2
	log := newPartLog()
	for i, p := range order {
		log.Merge(p.lat)
		if i+1 == kept {
			p50, p99 = log.Quantile(0.50), log.Quantile(0.99)
		}
	}
	return p50, p99, log.Quantile(0.99), kept
}

// summarize folds the finished parts' throughputs and CPU use into the
// outcome's end-to-end metrics. Host interference (other tenants,
// hypervisor steal) only ever slows a part down, and it hits a changing
// share of the parts, so a throughput takes the upper quartile over the
// parts (PartBest), as a timing takes the minimum of repeats.
// cpu_cores, which interference can move either way, takes the median.
// Latencies are not summarized over parts: their percentiles are read
// from every sample of the calmer half of the parts (calmPercentiles).
func summarize(o *outcome, parts []*subWin) {
	vals := make(map[string][]float64)
	for _, p := range parts {
		if !p.finished {
			continue
		}
		for k, v := range p.res {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		if k == "cpu_cores" {
			o.E2E[k] = Median(v)
		} else {
			o.E2E[k] = PartBest(v, true)
		}
	}
}

// rtSegments is how many devices a run opens in turn, each measured for
// an equal share of the window. Metrics are summarized over the parts of
// all segments, so one device's goroutine placement does not decide a
// run.
const rtSegments = 4

// segment runs one device for cfg.Seconds in cfg.Parts parts, adding
// its accounting and set-up samples to o, and returns the parts.
type segment func(cfg config, seg int, o *outcome) []*subWin

func runSegments(cfg config, run segment) *outcome {
	o := newOutcome()
	n := cfg.Segments
	if n == 0 {
		n = rtSegments
	}
	part := cfg
	part.Seconds = cfg.Seconds / float64(n)
	part.Parts = subWindows / n
	var parts []*subWin
	for i := 0; i < n; i++ {
		runtime.GC() // drop the previous device's buffers before the next opens
		parts = append(parts, run(part, i, o)...)
	}
	o.E2E["setup_s"] = Median(o.setups)
	summarize(o, parts)
	p50, p99, all99, kept := calmPercentiles(parts)
	o.E2E["fg_p50_us"] = float64(p50.Value) / 1e3
	o.E2E["fg_p99_us"] = float64(p99.Value) / 1e3
	o.Layer["loadgen.fg_samples"] = float64(p99.Count)
	o.Layer["loadgen.fg_above_p99"] = float64(p99.Above)
	o.Layer["loadgen.fg_p99_all_us"] = float64(all99.Value) / 1e3
	o.Layer["loadgen.fg_parts"] = float64(kept)
	fmt.Fprintf(os.Stderr, "perfbench: latency p99 %.1f us over the %d calmest parts, %.1f us over all %d\n",
		float64(p99.Value)/1e3, kept, float64(all99.Value)/1e3, len(parts))
	// Metrics the realtime workloads do not define repeat ones they do
	// (NOTES.md, "End-to-end metrics").
	o.E2E["probe_p99_us"] = o.E2E["fg_p99_us"]
	o.E2E["move_gb_per_s"] = o.E2E["bulk_gb_per_s"]
	o.E2E["ingest_mb_per_s"] = o.E2E["bulk_gb_per_s"] * 1e3
	o.E2E["move_cpu_frac"] = o.E2E["cpu_cores"] / float64(runtime.GOMAXPROCS(0))
	return o
}

// openSegmentRig opens the segment's device, timing setupReps opens
// into o's set-up samples. Timing them in every segment spreads them
// over the run, as the simulated workloads' repetitions are, so a short
// slow spell of the host does not decide setup_s. Payloads are seeded by
// the workload seed and the segment.
func openSegmentRig(cfg config, seg int, o *outcome, withBulk bool) (*rig, *rand.Rand) {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*rtSegments + int64(seg)))
	g, times := openRigTimed(rng, withBulk)
	o.setups = append(o.setups, times...)
	return g, rng
}

// rtCounts are the load generator's own counts: window counts for
// the measured window, All counts from its start to the end of the
// drain, the span the call timings cover.
type rtCounts struct {
	ops, nilAllocs, retrieves, emptyRetrieves int64
	opsAll, reqsAll                           int64
}

// rtLayer reads the device counters and the benchmark's call timings
// over the traced window into per-layer metrics.
//
// Device counters are read as deltas over the measured window and
// divided by the window's successful operations (c). The lane is reset
// when the window starts, so call timings cover the window and the
// drain after it, and are divided by the All counts.
func rtLayer(o *outcome, lane *Lane, before, after realtime.StatsSnapshot, c rtCounts) {
	if c.ops <= 0 || c.opsAll <= 0 || c.reqsAll <= 0 {
		return
	}
	per := func(v int64) float64 { return float64(v) / float64(c.ops) }
	callNs := func(name string) float64 {
		a := lane.Agg(name)
		if a.Calls == 0 {
			return 0
		}
		return float64(a.Ns) / float64(a.Calls)
	}
	spans := after.Lifecycle.Spans.Delta(before.Lifecycle.Spans)
	meanUs := func(s lifecycle.Span) float64 { return spans.Spans[s].Mean() / 1e3 }
	d := func(f func(s realtime.StatsSnapshot) int64) int64 { return f(after) - f(before) }

	o.Layer["realtime.alloc.call_ns"] = callNs("realtime.alloc:AllocRequest")
	o.Layer["realtime.alloc.nil_per_op"] = per(c.nilAllocs)

	submitNs := lane.Agg("realtime.submit:SubmitBatch").Ns + lane.Agg("realtime.submit:Submit").Ns
	o.Layer["realtime.submit.call_ns_per_req"] = float64(submitNs) / float64(c.reqsAll)
	o.Layer["realtime.submit.kicks_per_op"] = per(d(func(s realtime.StatsSnapshot) int64 { return s.Kicks }))
	o.Layer["realtime.submit.shed_per_op"] = per(d(func(s realtime.StatsSnapshot) int64 { return s.Shed }))
	o.Layer["realtime.submit.enqueue_retries"] = float64(d(func(s realtime.StatsSnapshot) int64 { return s.EnqueueRetries }))
	o.Layer["rbq.staging_wait_us"] = meanUs(lifecycle.SpanStagingWait)

	completed := d(func(s realtime.StatsSnapshot) int64 { return s.Completed })
	o.Layer["realtime.dispatch.wait_us"] = meanUs(lifecycle.SpanDispatchWait)
	o.Layer["realtime.dispatch.wait_p99_us"] = spans.Spans[lifecycle.SpanDispatchWait].QuantileInterp(0.99) / 1e3
	if completed > 0 {
		o.Layer["realtime.dispatch.inline_frac"] = float64(d(func(s realtime.StatsSnapshot) int64 { return s.InlineCompleted })) / float64(completed)
	}
	o.Layer["realtime.dispatch.worker_wakes_per_op"] = per(d(func(s realtime.StatsSnapshot) int64 { return s.WorkerWakes }))
	o.Layer["realtime.dispatch.aged_pops"] = float64(d(func(s realtime.StatsSnapshot) int64 { return s.AgedPops }))
	o.Layer["realtime.dispatch.retries"] = float64(d(func(s realtime.StatsSnapshot) int64 { return s.DispatchRetries }))

	chunks := d(func(s realtime.StatsSnapshot) int64 { return s.Chunks })
	o.Layer["realtime.controllers.ring_wait_us"] = meanUs(lifecycle.SpanRingWait)
	o.Layer["realtime.controllers.steal_delay_us"] = meanUs(lifecycle.SpanStealDelay)
	o.Layer["realtime.controllers.copy_us"] = meanUs(lifecycle.SpanCopy)
	if chunks > 0 {
		o.Layer["realtime.controllers.steals_per_chunk"] = float64(d(func(s realtime.StatsSnapshot) int64 { return s.Steals })) / float64(chunks)
	}
	o.Layer["realtime.controllers.chunks_per_op"] = per(chunks)

	spins := d(func(s realtime.StatsSnapshot) int64 { return s.PollerSpins })
	parks := d(func(s realtime.StatsSnapshot) int64 { return s.PollerParks })
	o.Layer["realtime.completion.dwell_us"] = meanUs(lifecycle.SpanCompletionDwell)
	o.Layer["realtime.completion.retrieve_call_ns"] = callNs("realtime.completion:RetrieveCompletedBatch")
	o.Layer["realtime.completion.poll_block_us_per_op"] = float64(lane.Agg("realtime.completion:Poll").Ns) / 1e3 / float64(c.opsAll)
	if spins+parks > 0 {
		o.Layer["realtime.completion.poll_spin_hit_frac"] = float64(spins) / float64(spins+parks)
	}
	if c.retrieves > 0 {
		o.Layer["realtime.completion.empty_retrieve_frac"] = float64(c.emptyRetrieves) / float64(c.retrieves)
	}
	o.Layer["flight.breaches_per_kop"] = per(after.Flight.Breaches-before.Flight.Breaches) * 1000
	selfFractions(o, lane)
}

// runSmallIOPS is the closed-loop small-request workload: one client
// keeps smallDepth 4 KB requests outstanding, submitting them
// smallBatch at a time, and retrieves and polls for itself.
func runSmallIOPS(cfg config) *outcome {
	o := runSegments(cfg, smallIOPSSegment)
	// Every request is this workload's bulk.
	o.E2E["bulk_gb_per_s"] = o.E2E["ops_per_s"] * smallBytes / 1e9
	o.E2E["move_gb_per_s"] = o.E2E["bulk_gb_per_s"]
	o.E2E["ingest_mb_per_s"] = o.E2E["bulk_gb_per_s"] * 1e3
	return o
}

func smallIOPSSegment(cfg config, seg int, o *outcome) []*subWin {
	g, _ := openSegmentRig(cfg, seg, o, false)
	defer g.d.Close()
	d := g.d

	var lane *Lane
	budget := spanCap
	if cfg.Trace {
		lane = NewLane("client", &budget)
		o.Lanes = append(o.Lanes, lane)
	}
	gen := make([]uint32, rtSlots)
	submitAt := make([]int64, rtSlots)
	pending := make([]*realtime.Request, 0, smallBatch)
	comp := make([]*realtime.Request, 64)
	var seq uint64
	var outstanding int
	var c rtCounts
	var occSum, iters int64
	var before realtime.StatsSnapshot

	ws := newWindows(cfg.Seconds, cfg.Parts)
	ws.onSwitch = func(idx int) {
		if idx == 0 {
			before = d.Stats()
			budget = spanCap
			lane.Reset()
			c.opsAll, c.reqsAll = 0, 0
		}
	}
	measuring := true
	for measuring || outstanding > 0 {
		now := ws.now()
		measuring = measuring && ws.tick(now)
		lane.Begin("loadgen:iteration")
		cur := ws.active()
		if cur != nil {
			occSum += int64(outstanding)
			iters++
		}
		for measuring && outstanding+smallBatch <= smallDepth {
			pending = pending[:0]
			for len(pending) < smallBatch {
				lane.Begin("realtime.alloc:AllocRequest")
				r := d.AllocRequest()
				if r == nil {
					lane.End(0)
					if cur != nil {
						c.nilAllocs++
					}
					break
				}
				i := r.Index()
				gen[i]++
				lane.End(ReqID(i, gen[i]))
				seq++
				stamp(g.src[i], g.dst[i], seq)
				r.Src, r.Dst, r.Cookie = g.src[i], g.dst[i], seq
				submitAt[i] = now
				pending = append(pending, r)
			}
			if len(pending) == 0 {
				break
			}
			o.Acct.Attempted += int64(len(pending))
			lane.Begin("realtime.submit:SubmitBatch")
			err := d.SubmitBatch(pending)
			lane.End(0)
			if err != nil {
				for _, r := range pending {
					o.Acct.Fail(FailSubmit)
					d.FreeRequest(r)
				}
				break
			}
			c.reqsAll += int64(len(pending))
			outstanding += len(pending)
		}
		lane.Begin("realtime.completion:RetrieveCompletedBatch")
		n := d.RetrieveCompletedBatch(comp)
		lane.End(0)
		if cur != nil {
			c.retrieves++
		}
		if n == 0 {
			if cur != nil {
				c.emptyRetrieves++
			}
			lane.Begin("realtime.completion:Poll")
			d.Poll(time.Millisecond)
			lane.End(0)
		} else {
			done := ws.now()
			for _, r := range comp[:n] {
				i := r.Index()
				outstanding--
				switch {
				case r.Err != nil:
					classify(&o.Acct, r.Err)
				case !bytes.Equal(r.Dst, r.Src):
					o.Acct.Fail(FailCorrupt)
					o.errorf("small_iops: request %d: destination differs from source", r.Cookie)
				default:
					c.opsAll++
					if cur != nil {
						cur.ops++
						cur.lat.Add(done - submitAt[i])
						c.ops++
					}
				}
				d.FreeRequest(r)
			}
		}
		lane.End(0)
	}
	if cfg.Trace {
		after := d.Stats()
		rtLayer(o, lane, before, after, c)
		if iters > 0 {
			o.Layer["loadgen.outstanding_mean"] = float64(occSum) / float64(iters)
		}
	}
	return ws.parts
}

// runFgOverBulk is the mixed workload: an open-loop 4 KB foreground
// stream at fgRate beside bulkDepth closed-loop 1 MB scavenger
// requests. The gated foreground latency runs from submit to retrieve;
// timed from each request's due time it adds the generator's lateness,
// and is reported per layer (NOTES.md says why).
func runFgOverBulk(cfg config) *outcome {
	o := runSegments(cfg, fgOverBulkSegment)
	o.Layer["loadgen.due_p50_us"] = float64(o.due.Quantile(0.50).Value) / 1e3
	o.Layer["loadgen.due_p99_us"] = float64(o.due.Quantile(0.99).Value) / 1e3
	return o
}

func fgOverBulkSegment(cfg config, seg int, o *outcome) []*subWin {
	g, rng := openSegmentRig(cfg, seg, o, true)
	if o.due == nil {
		o.due = newPartLog()
	}
	sample := rand.New(rand.NewSource(rng.Int63())) // which bulk requests to verify
	defer g.d.Close()
	d := g.d

	var lane *Lane
	budget := spanCap
	if cfg.Trace {
		lane = NewLane("client", &budget)
		o.Lanes = append(o.Lanes, lane)
	}
	gen := make([]uint32, rtSlots)
	dueAt := make([]int64, rtSlots)
	submitAt := make([]int64, rtSlots)
	comp := make([]*realtime.Request, 64)
	var seq uint64
	var outstanding int
	var c rtCounts
	var occSum, iters int64
	var late []int64
	var before realtime.StatsSnapshot

	// submit sends one request at now: bulk slot k's buffers when k >= 0,
	// otherwise the foreground buffers of the allocated slot (a slot is
	// exclusive while its request is in flight), due at due.
	submit := func(k int, due, now int64) bool {
		lane.Begin("realtime.alloc:AllocRequest")
		r := d.AllocRequest()
		o.Acct.Attempted++
		if r == nil {
			lane.End(0)
			c.nilAllocs++
			o.Acct.Fail(FailNoSlots)
			return false
		}
		i := r.Index()
		gen[i]++
		lane.End(ReqID(i, gen[i]))
		seq++
		src, dst, class, cookie := g.src[i], g.dst[i], realtime.ClassForeground, seq
		if k >= 0 {
			src, dst, class, cookie = g.bulkSrc[k], g.bulkDst[k], realtime.ClassScavenger, bulkCookie|uint64(k)
		}
		stamp(src, dst, seq)
		r.Src, r.Dst, r.Cookie, r.Class = src, dst, cookie, class
		dueAt[i], submitAt[i] = due, now
		lane.Begin("realtime.submit:Submit")
		err := d.Submit(r)
		lane.End(0)
		if err != nil {
			if errors.Is(err, realtime.ErrOverload) {
				o.Acct.Fail(FailOverload)
			} else {
				o.Acct.Fail(FailSubmit)
			}
			d.FreeRequest(r)
			return false
		}
		c.reqsAll++
		outstanding++
		return true
	}
	// A refused bulk request is counted as failed and retried after
	// retryNs, so the closed loop keeps bulkDepth in flight.
	const retryNs = int64(100 * time.Microsecond)
	retryAt := make([]int64, bulkDepth) // 0 = in flight
	sendBulk := func(k int, now int64) {
		retryAt[k] = 0
		if !submit(k, now, now) {
			retryAt[k] = now + retryNs
		}
	}

	ws := newWindows(cfg.Seconds, cfg.Parts)
	ws.onSwitch = func(idx int) {
		if idx == 0 {
			before = d.Stats()
			c.nilAllocs = 0
			budget = spanCap
			lane.Reset()
			c.opsAll, c.reqsAll = 0, 0
		}
	}
	period := int64(time.Second) / fgRate
	for k := 0; k < bulkDepth; k++ {
		sendBulk(k, ws.now())
	}
	nextDue := ws.now()
	measuring := true
	for measuring || outstanding > 0 {
		now := ws.now()
		measuring = measuring && ws.tick(now)
		lane.Begin("loadgen:iteration")
		cur := ws.active()
		if cur != nil {
			occSum += int64(outstanding)
			iters++
		}
		for k, at := range retryAt {
			if measuring && at != 0 && now >= at {
				sendBulk(k, now)
			}
		}
		// At most one foreground request per iteration: a generator
		// catching up after a stall keeps retrieving between its
		// overdue submissions instead of flooding the slots.
		if measuring && now >= nextDue {
			if cur != nil {
				late = append(late, now-nextDue)
			}
			submit(-1, nextDue, now)
			nextDue += period
		}
		lane.Begin("realtime.completion:RetrieveCompletedBatch")
		n := d.RetrieveCompletedBatch(comp)
		lane.End(0)
		if cur != nil {
			c.retrieves++
		}
		if n == 0 {
			if cur != nil {
				c.emptyRetrieves++
			}
			if gap := nextDue - now; gap > spinNs || !measuring {
				wait := time.Duration(gap - spinNs)
				if !measuring {
					wait = time.Millisecond
				}
				lane.Begin("realtime.completion:Poll")
				d.Poll(wait)
				lane.End(0)
			} else {
				// Close to the due time: spin, but let the device's
				// goroutines run on this P meanwhile.
				runtime.Gosched()
			}
		}
		done := ws.now()
		for _, r := range comp[:n] {
			i := r.Index()
			outstanding--
			bulk := r.Cookie&bulkCookie != 0
			verify := !bulk || cfg.VerifyAll || sample.Intn(bulkSampleN) == 0
			switch {
			case r.Err != nil:
				classify(&o.Acct, r.Err)
			case verify && !bytes.Equal(r.Dst, r.Src):
				o.Acct.Fail(FailCorrupt)
				o.errorf("fg_over_bulk: request %d (bulk %v): destination differs from source", r.Cookie&^bulkCookie, bulk)
			default:
				c.opsAll++
				if cur == nil {
					break
				}
				cur.ops++
				if bulk {
					cur.bulk += int64(len(r.Src))
				} else {
					cur.lat.Add(done - submitAt[i])
					o.due.Add(done - dueAt[i])
				}
				c.ops++
			}
			d.FreeRequest(r)
			if bulk && measuring {
				sendBulk(int(r.Cookie&^bulkCookie), done)
			}
		}
		lane.End(0)
	}
	lp50 := ExactQuantile(late, 0.5)
	lp99 := ExactQuantile(late, 0.99)
	o.Layer["loadgen.late_p50_us"] = float64(lp50.Value) / 1e3
	o.Layer["loadgen.late_p99_us"] = float64(lp99.Value) / 1e3
	fmt.Fprintf(os.Stderr, "perfbench: generator lateness p50 %.1f us, p99 %.1f us over %d foreground requests\n",
		float64(lp50.Value)/1e3, float64(lp99.Value)/1e3, lp99.Count)
	if iters > 0 {
		o.Layer["loadgen.outstanding_mean"] = float64(occSum) / float64(iters)
	}
	if cfg.Trace {
		after := d.Stats()
		rtLayer(o, lane, before, after, c)
	}
	return ws.parts
}
