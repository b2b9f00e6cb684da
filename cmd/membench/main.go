// membench is the steady-state benchmark harness for the realtime
// device: it drives the sharded submission pipeline with configurable
// submitter/poller fleets, measures only the steady-state window
// (warmup excluded via histogram deltas), and emits a machine-readable
// JSON report for CI archival.
//
// Usage:
//
//	membench [-quick] [-o BENCH_realtime.json]
//	membench -validate BENCH_realtime.json
//
// Workloads:
//
//	small_iops   8 submitters × 2 pollers, 4 KB requests batched ×16 —
//	             the IOPS / kick-amortization story
//	large_bw     2 submitters × 1 poller, 4 MB chunked transfers —
//	             bandwidth through the ring + work-stealing dispatch
//	mixed        6 small-request submitters alongside 2 large-request
//	             submitters on one device
//	open_loop    paced arrivals at a fixed target rate, so the latency
//	             histogram reflects queueing rather than saturation
//	fg_baseline  paced foreground-only load — the uncontended latency
//	             reference for the overload run
//	overload     the same paced foreground load with closed-loop
//	             scavenger flooding (large transfers) on top: the
//	             priority-isolation story — scavengers are shed with
//	             ErrOverload, foreground latency holds near baseline
//	inline_small paced small requests with adaptive inline completion on
//	notify_small the same load with inline completion disabled
//	             (always-notify) — the adaptive-completion ablation
//	smallrt      the 8-submitter 4 KB scenario unbatched, park/wake vs
//	             busy-poll worker (schema v6): the kick-elimination
//	             story, reported as an off/on pair with the speedup
//	flight       deterministic outlier probe (schema v7): warm the
//	             adaptive threshold with fast requests, inject one
//	             chaos-delayed request, and verify the flight recorder
//	             captured it with a complete stage vector
//	streams      multi-stream ingest (schema v8, virtual time): four
//	             GB-scale producers multiplexed over one stream engine's
//	             pinned buffer ring while a foreground prober holds its
//	             uncontended p99 bucket; checksums are gated against an
//	             independent direct pass
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
	"memif/internal/realtime"
)

// Report is the schema of BENCH_realtime.json. Version bumps whenever a
// field changes meaning; CI validates the invariants in validate().
type Report struct {
	Benchmark  string           `json:"benchmark"` // always "membench"
	Version    int              `json:"version"`
	UnixTime   int64            `json:"unix_time"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Workloads  []WorkloadResult `json:"workloads"`
	// Tiering is the virtual-time tiering-daemon scenario (schema v4):
	// promotion/demotion counts, promotion lag, and the foreground-p99-
	// under-migration comparison. See tiering.go.
	Tiering *TieringResult `json:"tiering,omitempty"`
	// Tenants is the multi-tenant fairness/isolation scenario (schema
	// v5): 1k+ tenant cohort Jain's index, weighted DRR shares, and the
	// victim-vs-aggressor p99 comparison. See tenants.go.
	Tenants *TenantsResult `json:"tenants,omitempty"`
	// SmallRT is the busy-poll ablation (schema v6): the 8-submitter
	// 4 KB unbatched scenario with the park/wake worker vs the spinning
	// worker, and the resulting throughput ratio.
	SmallRT *SmallRTResult `json:"smallrt,omitempty"`
	// Flight is the deterministic outlier probe (schema v7): a known
	// chaos-delayed request must breach the adaptive threshold and
	// come back out of the flight ring with a complete stage vector.
	// See flight.go.
	Flight *FlightProbeResult `json:"flight,omitempty"`
	// Streams is the multi-stream ingest scenario (schema v8): four
	// GB-scale producers over one engine's pinned buffer ring, with
	// checksum, never-stall, O(ring)-mmap, batching, foreground-p99 and
	// flight-forensics gates. See streams.go.
	Streams *StreamsResult `json:"streams,omitempty"`
}

// SmallRTResult is the busy-poll off/on pair over the identical
// small-request load. Speedup is On.OpsPerSec / Off.OpsPerSec.
type SmallRTResult struct {
	Off     WorkloadResult `json:"off"`
	On      WorkloadResult `json:"on"`
	Speedup float64        `json:"speedup"`
}

type WorkloadResult struct {
	Name       string  `json:"name"`
	Mode       string  `json:"mode"` // closed_loop | open_loop
	Submitters int     `json:"submitters"`
	Pollers    int     `json:"pollers"`
	SizeBytes  int     `json:"size_bytes"`
	Batch      int     `json:"batch"`
	WindowSec  float64 `json:"window_sec"`
	Ops        int64   `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	GBPerSec   float64 `json:"gb_per_sec"`
	// P50/P99/P999 are interpolated within histogram buckets (schema
	// v7, obs.Quantiles): smooth estimates rather than power-of-two
	// upper bounds.
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	P999Ns     int64   `json:"p999_ns"`
	MeanNs     float64 `json:"mean_ns"`
	Kicks      int64   `json:"kicks"`
	KicksPerOp float64 `json:"kicks_per_op"`
	Steals     int64   `json:"steals"`
	Batches    int64   `json:"batches"`
	// Stages is the per-stage latency breakdown of the steady-state
	// window, over every retrieved request (schema v2).
	// Quantiles are interpolated within histogram buckets
	// (obs.QuantileInterp), so they are smooth estimates rather than
	// power-of-two upper bounds. Only stages with samples appear.
	Stages []StageLatency `json:"stages"`
	// QoS fields (schema v3). Shed counts admission rejections in the
	// window; InlineCompleted the requests the worker copied inline;
	// InlineThresholdBytes the adaptive cutoff at window end (0 =
	// disabled); AgedPops the out-of-priority-order dispatches. Classes
	// breaks the window down per priority class — present only for
	// workloads that declare a class mix.
	Shed                 int64         `json:"shed,omitempty"`
	InlineCompleted      int64         `json:"inline_completed,omitempty"`
	InlineThresholdBytes int64         `json:"inline_threshold_bytes,omitempty"`
	AgedPops             int64         `json:"aged_pops,omitempty"`
	Classes              []ClassResult `json:"classes,omitempty"`
	// Busy-poll attribution (schema v6): worker wakes and busy-poll
	// spin/park counts, plus the Poll micro-wait's spin/park split, all
	// window deltas. BusyPollSpins > 0 identifies a spinning-worker run.
	WorkerWakes   int64 `json:"worker_wakes,omitempty"`
	BusyPollSpins int64 `json:"busy_poll_spins,omitempty"`
	BusyPollParks int64 `json:"busy_poll_parks,omitempty"`
	PollerSpins   int64 `json:"poller_spins,omitempty"`
	PollerParks   int64 `json:"poller_parks,omitempty"`
	// Flight is the workload's flight-recorder summary (schema v7),
	// snapshotted after teardown so the counts are quiescent. The
	// counters cover the whole run including warmup, not just the
	// measure window — outlier capture has no window delta.
	Flight *FlightSummary `json:"flight,omitempty"`
}

// ClassResult is one priority class's slice of a workload window.
type ClassResult struct {
	Class  string  `json:"class"`
	Ops    int64   `json:"ops"`  // completions, including shed batch members
	Shed   int64   `json:"shed"` // admission rejections
	P50Ns  int64   `json:"p50_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// StageLatency is one attribution bucket of the request latency:
// staging wait, dispatch wait, ring wait, steal delay, copy, or
// completion dwell.
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// stageBreakdown converts a steady-state span delta into the report
// rows, skipping empty spans (e.g. steal_delay on a steal-free run).
func stageBreakdown(spans lifecycle.SpanSnapshot) []StageLatency {
	names := lifecycle.SpanNames()
	var out []StageLatency
	for i, name := range names {
		h := spans.Spans[i]
		if h.Count == 0 {
			continue
		}
		q := h.Quantiles(0.50, 0.99, 0.999)
		out = append(out, StageLatency{
			Stage:  name,
			Count:  h.Count,
			P50Ns:  q[0],
			P99Ns:  q[1],
			P999Ns: q[2],
			MeanNs: h.Mean(),
		})
	}
	return out
}

// workload describes one steady-state scenario. Large is an optional
// second submitter class for the mixed workload; classMix, when set,
// replaces the legacy submitter fields with an explicit per-priority-
// class load mix (the QoS workloads).
type workload struct {
	name       string
	mode       string // closed_loop | open_loop
	submitters int
	pollers    int
	size       int
	batch      int
	largeSubs  int // extra submitters issuing largeSize requests
	largeSize  int
	targetRate int // open_loop only: requests/second
	classMix   []classLoad
	opts       realtime.Options
}

// classLoad is one priority class's share of a workload: submitters
// issuing size-byte requests in batches, paced at rate requests/second
// across the class (0 = closed loop, as fast as slots allow).
type classLoad struct {
	class      realtime.Class
	submitters int
	size       int
	batch      int
	rate       int
}

func workloads(quick bool) []workload {
	rate := 50000
	if quick {
		rate = 20000
	}
	return []workload{
		{
			name: "small_iops", mode: "closed_loop",
			submitters: 8, pollers: 2, size: 4 << 10, batch: 16,
			opts: realtime.Options{NumReqs: 512, Controllers: 4, StagingShards: 4},
		},
		{
			name: "large_bw", mode: "closed_loop",
			submitters: 2, pollers: 1, size: 4 << 20, batch: 1,
			opts: realtime.Options{NumReqs: 16, Controllers: 4, StagingShards: 2, ChunkBytes: 256 << 10},
		},
		{
			name: "mixed", mode: "closed_loop",
			submitters: 6, pollers: 2, size: 4 << 10, batch: 8,
			largeSubs: 2, largeSize: 1 << 20,
			opts: realtime.Options{NumReqs: 64, Controllers: 4, StagingShards: 4, ChunkBytes: 256 << 10},
		},
		{
			name: "open_loop", mode: "open_loop",
			submitters: 2, pollers: 1, size: 4 << 10, batch: 8,
			targetRate: rate,
			opts:       realtime.Options{NumReqs: 256, Controllers: 2, StagingShards: 2},
		},
		{
			// The uncontended reference: the overload workload's foreground
			// load alone, on the same small device.
			name: "fg_baseline", mode: "open_loop",
			pollers: 2, size: 4 << 10, batch: 1,
			classMix: []classLoad{
				{class: realtime.ClassForeground, submitters: 2, size: 4 << 10, batch: 1, rate: rate / 2},
			},
			opts: realtime.Options{NumReqs: 64, Controllers: 2, StagingShards: 2},
		},
		{
			// Priority isolation under overload: the same paced foreground
			// load, plus closed-loop scavenger submitters flooding the
			// device with 1 MB transfers. The scavenger flood drives total
			// occupancy past its 50% admission share, so scavengers are
			// shed with ErrOverload while foreground — never shed, popped
			// first, mostly completed inline — holds near its baseline
			// latency.
			name: "overload", mode: "open_loop",
			pollers: 2, size: 4 << 10, batch: 1,
			classMix: []classLoad{
				{class: realtime.ClassForeground, submitters: 2, size: 4 << 10, batch: 1, rate: rate / 2},
				{class: realtime.ClassScavenger, submitters: 4, size: 1 << 20, batch: 4},
			},
			opts: realtime.Options{NumReqs: 64, Controllers: 2, StagingShards: 2,
				ChunkBytes: 256 << 10,
				// A deep outlier ring: every breaching foreground request
				// of the run must still be present at the end (validated
				// against the breach counter — the tail-forensics
				// acceptance gate).
				Flight: flight.Options{RingDepth: 8192}},
		},
		{
			// Adaptive completion on: small paced requests, worker copies
			// them inline (the paper's poll path).
			name: "inline_small", mode: "open_loop",
			pollers: 1, size: 4 << 10, batch: 1,
			classMix: []classLoad{
				{class: realtime.ClassForeground, submitters: 2, size: 4 << 10, batch: 1, rate: rate / 2},
			},
			opts: realtime.Options{NumReqs: 128, Controllers: 2, StagingShards: 2},
		},
		{
			// The always-notify ablation: identical load with inline
			// completion disabled, so every request pays the ring push,
			// controller wakeup and notify hop.
			name: "notify_small", mode: "open_loop",
			pollers: 1, size: 4 << 10, batch: 1,
			classMix: []classLoad{
				{class: realtime.ClassForeground, submitters: 2, size: 4 << 10, batch: 1, rate: rate / 2},
			},
			opts: realtime.Options{NumReqs: 128, Controllers: 2, StagingShards: 2,
				QoS: realtime.QoSOptions{InlineThreshold: -1}},
		},
	}
}

// liveDevice is the device of the workload currently running, for the
// -http observability endpoint; nil between workloads.
var liveDevice atomic.Pointer[realtime.Device]

func main() {
	quick := flag.Bool("quick", false, "short warmup/measure windows (CI smoke)")
	out := flag.String("o", "BENCH_realtime.json", "output path for the JSON report (\"-\" for stdout only)")
	validatePath := flag.String("validate", "", "validate an existing report file and exit")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/outliers and /debug/pprof on this address while benchmarking")
	flag.Parse()

	if *validatePath != "" {
		if err := validateFile(*validatePath); err != nil {
			fmt.Fprintf(os.Stderr, "membench: validate %s: %v\n", *validatePath, err)
			os.Exit(1)
		}
		fmt.Printf("membench: %s is a valid report\n", *validatePath)
		return
	}

	if *httpAddr != "" {
		h := obshttp.NewHandler()
		h.Register(func() []obshttp.Metric {
			d := liveDevice.Load()
			if d == nil {
				return nil
			}
			return obshttp.RealtimeMetrics("bench", d.Stats())
		})
		h.RegisterOutliers("membench", func() flight.Snapshot {
			d := liveDevice.Load()
			if d == nil {
				return flight.Snapshot{}
			}
			return d.FlightSnapshot()
		})
		go func() {
			fmt.Fprintf(os.Stderr, "membench: serving observability on %s\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, h); err != nil {
				fmt.Fprintf(os.Stderr, "membench: http: %v\n", err)
			}
		}()
	}

	warmup, window := time.Second, 3*time.Second
	if *quick {
		warmup, window = 150*time.Millisecond, 400*time.Millisecond
	}

	rep := Report{
		Benchmark:  "membench",
		Version:    8,
		UnixTime:   time.Now().Unix(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	for _, wl := range workloads(*quick) {
		fmt.Fprintf(os.Stderr, "membench: running %-10s (warmup %v, window %v)\n", wl.name, warmup, window)
		res := runWorkload(wl, warmup, window)
		fmt.Fprintf(os.Stderr, "membench: %-12s %12.0f ops/s %8.2f GB/s  p50 %s  p99 %s  kicks/op %.4f\n",
			wl.name, res.OpsPerSec, res.GBPerSec, time.Duration(res.P50Ns), time.Duration(res.P99Ns), res.KicksPerOp)
		for _, c := range res.Classes {
			fmt.Fprintf(os.Stderr, "membench:   %-12s %10d ops %10d shed  p50 %s  p99 %s\n",
				c.Class, c.Ops, c.Shed, time.Duration(c.P50Ns), time.Duration(c.P99Ns))
		}
		rep.Workloads = append(rep.Workloads, res)
	}

	fmt.Fprintf(os.Stderr, "membench: running tiering    (virtual-time sim)\n")
	rep.Tiering = runTiering(*quick)
	reportTiering(rep.Tiering)

	fmt.Fprintf(os.Stderr, "membench: running tenants    (fairness + isolation)\n")
	rep.Tenants = runTenants(*quick)
	reportTenants(rep.Tenants)

	fmt.Fprintf(os.Stderr, "membench: running smallrt    (busy-poll off vs on)\n")
	rep.SmallRT = runSmallRT(warmup, window)
	fmt.Fprintf(os.Stderr, "membench:   off %12.0f ops/s  kicks/op %.4f  wakes %d\n",
		rep.SmallRT.Off.OpsPerSec, rep.SmallRT.Off.KicksPerOp, rep.SmallRT.Off.WorkerWakes)
	fmt.Fprintf(os.Stderr, "membench:   on  %12.0f ops/s  kicks/op %.4f  spins %d parks %d  (%.2fx)\n",
		rep.SmallRT.On.OpsPerSec, rep.SmallRT.On.KicksPerOp,
		rep.SmallRT.On.BusyPollSpins, rep.SmallRT.On.BusyPollParks, rep.SmallRT.Speedup)

	fmt.Fprintf(os.Stderr, "membench: running streams    (multi-stream ingest, virtual time)\n")
	rep.Streams = runStreams(*quick)
	reportStreams(rep.Streams)

	fmt.Fprintf(os.Stderr, "membench: running flight     (deterministic outlier probe)\n")
	rep.Flight = runFlightProbe()
	fmt.Fprintf(os.Stderr, "membench:   breaches %d captured %d  threshold %s  outlier %s  complete_vector %v\n",
		rep.Flight.Breaches, rep.Flight.Captured, time.Duration(rep.Flight.ThresholdNs),
		time.Duration(rep.Flight.OutlierLatencyNs), rep.Flight.CompleteVector)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "membench: marshal: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "membench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "membench: wrote %s\n", *out)
	}
	if err := validate(rep); err != nil {
		fmt.Fprintf(os.Stderr, "membench: self-check failed: %v\n", err)
		os.Exit(1)
	}
}

// runWorkload opens a device, spins up the submitter and poller fleets,
// waits out the warmup, measures one steady-state window via stats
// deltas, then tears everything down.
func runWorkload(wl workload, warmup, window time.Duration) WorkloadResult {
	d := realtime.Open(wl.opts)
	liveDevice.Store(d)
	defer liveDevice.Store(nil)
	// Legacy workloads describe a single (implicitly foreground) class,
	// plus optionally a large-request side channel; normalize both forms
	// into a class mix.
	mix := wl.classMix
	if len(mix) == 0 {
		mix = []classLoad{{class: realtime.ClassForeground,
			submitters: wl.submitters, size: wl.size, batch: wl.batch, rate: wl.targetRate}}
		if wl.largeSubs > 0 {
			mix = append(mix, classLoad{class: realtime.ClassForeground,
				submitters: wl.largeSubs, size: wl.largeSize, batch: 1})
		}
	}
	maxSize := 0
	for _, cl := range mix {
		if cl.size > maxSize {
			maxSize = cl.size
		}
	}
	// Destinations are owned per slot: a slot is exclusive from Alloc to
	// Free, so slot-indexed buffers can never be written concurrently.
	dsts := make([][]byte, wl.opts.NumReqs)
	for i := range dsts {
		dsts[i] = make([]byte, maxSize)
	}
	src := make([]byte, maxSize)

	var stop atomic.Bool
	var wg, pwg sync.WaitGroup

	submitter := func(cl classLoad) {
		defer wg.Done()
		pending := make([]*realtime.Request, 0, cl.batch)
		var tick *time.Ticker
		perTick := 0
		if cl.rate > 0 {
			// Coarse pacing: the class's target rate split across its
			// submitters, refilled every 2ms.
			tick = time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			perTick = cl.rate / cl.submitters / 500
			if perTick < 1 {
				perTick = 1
			}
		}
		for !stop.Load() {
			n := 1
			if tick != nil {
				<-tick.C
				n = perTick
			}
			for i := 0; i < n && !stop.Load(); i++ {
				var r *realtime.Request
				for r == nil && !stop.Load() {
					if r = d.AllocRequest(); r == nil {
						runtime.Gosched() // pollers are freeing slots
					}
				}
				if r == nil {
					break
				}
				r.Class = cl.class
				r.Src, r.Dst = src[:cl.size], dsts[r.Index()][:cl.size]
				pending = append(pending, r)
				if len(pending) == cl.batch {
					if err := d.SubmitBatch(pending); err != nil {
						panic(err)
					}
					pending = pending[:0]
				}
			}
		}
		if len(pending) > 0 {
			if err := d.SubmitBatch(pending); err != nil {
				panic(err)
			}
		}
	}

	poller := func() {
		defer pwg.Done()
		buf := make([]*realtime.Request, 64)
		for {
			n := d.RetrieveCompletedBatch(buf)
			for i := 0; i < n; i++ {
				d.FreeRequest(buf[i])
			}
			if n > 0 {
				continue
			}
			if stop.Load() {
				s := d.Stats()
				if s.Completed >= s.Submitted && d.RetrieveCompletedBatch(buf[:1]) == 0 {
					return
				}
			}
			d.Poll(time.Millisecond)
		}
	}

	for i := 0; i < wl.pollers; i++ {
		pwg.Add(1)
		go poller()
	}
	totalSubs := 0
	for _, cl := range mix {
		totalSubs += cl.submitters
		for i := 0; i < cl.submitters; i++ {
			wg.Add(1)
			go submitter(cl)
		}
	}

	time.Sleep(warmup)
	s0 := d.Stats()
	t0 := time.Now()
	time.Sleep(window)
	s1 := d.Stats()
	elapsed := time.Since(t0)

	stop.Store(true)
	wg.Wait()
	pwg.Wait()
	// Quiescent flight snapshot: every request is retrieved, so the
	// breach counter and the ring contents are settled (the watchdog
	// may still tick until Close, but stall records are counted apart).
	fsnap := d.FlightSnapshot()
	d.Close()

	lat := s1.Latency.Delta(s0.Latency)
	latQ := lat.Quantiles(0.50, 0.99, 0.999)
	ops := s1.Completed - s0.Completed
	kicks := s1.Kicks - s0.Kicks
	res := WorkloadResult{
		Name:                 wl.name,
		Mode:                 wl.mode,
		Submitters:           totalSubs,
		Pollers:              wl.pollers,
		SizeBytes:            wl.size,
		Batch:                wl.batch,
		WindowSec:            elapsed.Seconds(),
		Ops:                  ops,
		OpsPerSec:            float64(ops) / elapsed.Seconds(),
		GBPerSec:             float64(s1.BytesMoved-s0.BytesMoved) / elapsed.Seconds() / 1e9,
		P50Ns:                int64(latQ[0]),
		P99Ns:                int64(latQ[1]),
		P999Ns:               int64(latQ[2]),
		MeanNs:               lat.Mean(),
		Kicks:                kicks,
		Steals:               s1.Steals - s0.Steals,
		Batches:              s1.Batches - s0.Batches,
		Stages:               stageBreakdown(s1.Lifecycle.Spans.Delta(s0.Lifecycle.Spans)),
		Shed:                 s1.Shed - s0.Shed,
		InlineCompleted:      s1.InlineCompleted - s0.InlineCompleted,
		InlineThresholdBytes: s1.InlineThresholdBytes,
		AgedPops:             s1.AgedPops - s0.AgedPops,
		WorkerWakes:          s1.WorkerWakes - s0.WorkerWakes,
		BusyPollSpins:        s1.BusyPollSpins - s0.BusyPollSpins,
		BusyPollParks:        s1.BusyPollParks - s0.BusyPollParks,
		PollerSpins:          s1.PollerSpins - s0.PollerSpins,
		PollerParks:          s1.PollerParks - s0.PollerParks,
		Flight:               flightSummary(fsnap),
	}
	if ops > 0 {
		res.KicksPerOp = float64(kicks) / float64(ops)
	}
	if len(wl.classMix) > 0 {
		for c := range s1.Classes {
			c0, c1 := s0.Classes[c], s1.Classes[c]
			if c1.Submitted == c0.Submitted && c1.Shed == c0.Shed {
				continue // class idle in this workload
			}
			clat := c1.Latency.Delta(c0.Latency)
			cq := clat.Quantiles(0.50, 0.99, 0.999)
			res.Classes = append(res.Classes, ClassResult{
				Class:  realtime.ClassName(c),
				Ops:    c1.Completed - c0.Completed,
				Shed:   c1.Shed - c0.Shed,
				P50Ns:  int64(cq[0]),
				P99Ns:  int64(cq[1]),
				P999Ns: int64(cq[2]),
				MeanNs: clat.Mean(),
			})
		}
	}
	return res
}

// runSmallRT runs the busy-poll ablation: the 8-submitter 4 KB scenario
// unbatched (batch 1 keeps the kick path live, so the elimination is
// visible) with the park/wake worker and then the identical load with
// the spinning worker.
func runSmallRT(warmup, window time.Duration) *SmallRTResult {
	base := workload{
		name: "smallrt_parkwake", mode: "closed_loop",
		submitters: 8, pollers: 2, size: 4 << 10, batch: 1,
		opts: realtime.Options{NumReqs: 512, Controllers: 4, StagingShards: 4},
	}
	busy := base
	busy.name = "smallrt_busypoll"
	busy.opts.BusyPoll = true

	res := &SmallRTResult{
		Off: runWorkload(base, warmup, window),
		On:  runWorkload(busy, warmup, window),
	}
	if res.Off.OpsPerSec > 0 {
		res.Speedup = res.On.OpsPerSec / res.Off.OpsPerSec
	}
	return res
}

// validate enforces the report invariants CI depends on. It is run both
// on the report membench just produced (self-check) and, via -validate,
// on the artifact a previous step wrote.
func validate(rep Report) error {
	if rep.Benchmark != "membench" {
		return fmt.Errorf("benchmark field is %q, want \"membench\"", rep.Benchmark)
	}
	if rep.Version < 1 {
		return fmt.Errorf("version %d < 1", rep.Version)
	}
	if rep.UnixTime <= 0 {
		return fmt.Errorf("unix_time %d is not positive", rep.UnixTime)
	}
	if len(rep.Workloads) == 0 {
		return fmt.Errorf("no workloads in report")
	}
	for _, w := range rep.Workloads {
		if w.Name == "" {
			return fmt.Errorf("workload with empty name")
		}
		if w.Mode != "closed_loop" && w.Mode != "open_loop" {
			return fmt.Errorf("workload %s: bad mode %q", w.Name, w.Mode)
		}
		if w.Ops <= 0 {
			return fmt.Errorf("workload %s: completed %d ops, want > 0", w.Name, w.Ops)
		}
		if w.OpsPerSec <= 0 {
			return fmt.Errorf("workload %s: ops_per_sec %f, want > 0", w.Name, w.OpsPerSec)
		}
		if w.WindowSec <= 0 {
			return fmt.Errorf("workload %s: window_sec %f, want > 0", w.Name, w.WindowSec)
		}
		if w.P99Ns < w.P50Ns {
			return fmt.Errorf("workload %s: p99 %d < p50 %d", w.Name, w.P99Ns, w.P50Ns)
		}
		for _, st := range w.Stages {
			if st.Stage == "" {
				return fmt.Errorf("workload %s: stage entry with empty name", w.Name)
			}
			if st.Count <= 0 {
				return fmt.Errorf("workload %s stage %s: count %d, want > 0", w.Name, st.Stage, st.Count)
			}
			if st.P99Ns < st.P50Ns {
				return fmt.Errorf("workload %s stage %s: p99 %.0f < p50 %.0f", w.Name, st.Stage, st.P99Ns, st.P50Ns)
			}
		}
	}
	if rep.Version >= 2 {
		// Every retrieved request feeds the stage spans; a report with no
		// stage attribution anywhere means the stamping path broke.
		any := false
		for _, w := range rep.Workloads {
			if len(w.Stages) > 0 {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("version %d report has no per-stage latency data in any workload", rep.Version)
		}
	}
	if rep.Version >= 3 {
		if err := validateQoS(rep); err != nil {
			return err
		}
	}
	if rep.Version >= 4 {
		if err := validateTiering(rep); err != nil {
			return err
		}
	}
	if rep.Version >= 5 {
		if err := validateTenants(rep); err != nil {
			return err
		}
	}
	if rep.Version >= 6 {
		if err := validateSmallRT(rep); err != nil {
			return err
		}
	}
	if rep.Version >= 7 {
		if err := validateFlight(rep); err != nil {
			return err
		}
	}
	if rep.Version >= 8 {
		if err := validateStreams(rep); err != nil {
			return err
		}
	}
	return nil
}

// validateSmallRT enforces the schema-v6 busy-poll ablation invariants.
// The mode gates are structural (did the spinning worker actually spin,
// did the park/wake run actually kick), so they hold on loaded CI
// machines; the ≥1.3× speedup acceptance gate applies only to full
// (non-quick) runs on a multi-core host, where the spinning worker has
// a core to burn — on one CPU the spin phase is cooperative scheduling
// and the two modes converge (see EXPERIMENTS.md).
func validateSmallRT(rep Report) error {
	sr := rep.SmallRT
	if sr == nil {
		return fmt.Errorf("version %d report has no smallrt ablation", rep.Version)
	}
	if sr.Off.Ops <= 0 || sr.On.Ops <= 0 {
		return fmt.Errorf("smallrt: ops off=%d on=%d, want both > 0", sr.Off.Ops, sr.On.Ops)
	}
	if sr.Off.BusyPollSpins != 0 {
		return fmt.Errorf("smallrt off: %d busy-poll spins with BusyPoll disabled", sr.Off.BusyPollSpins)
	}
	if sr.On.BusyPollSpins <= 0 {
		return fmt.Errorf("smallrt on: no busy-poll spins — the worker never entered the spin phase")
	}
	if sr.Off.Kicks <= 0 {
		return fmt.Errorf("smallrt off: no kicks — the park/wake baseline is not exercising the kick path")
	}
	if sr.Speedup <= 0 {
		return fmt.Errorf("smallrt: speedup %.3f, want > 0", sr.Speedup)
	}
	if !rep.Quick && rep.GoMaxProcs > 1 && sr.Speedup < 1.3 {
		return fmt.Errorf("smallrt: busy-poll speedup %.3fx < 1.3x acceptance gate", sr.Speedup)
	}
	return nil
}

// validateQoS enforces the schema-v3 QoS invariants: the overload
// workload must actually shed scavengers and never shed foreground, and
// the inline/notify ablation pair must differ in the inline counter.
// The gates are structural, not timing-based, so they hold on loaded CI
// machines; the latency comparison itself lives in EXPERIMENTS.md.
func validateQoS(rep Report) error {
	byName := map[string]WorkloadResult{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	if w, ok := byName["overload"]; ok {
		if len(w.Classes) == 0 {
			return fmt.Errorf("overload workload has no per-class results")
		}
		var fg, scav *ClassResult
		for i := range w.Classes {
			switch w.Classes[i].Class {
			case "foreground":
				fg = &w.Classes[i]
			case "scavenger":
				scav = &w.Classes[i]
			}
		}
		if fg == nil || scav == nil {
			return fmt.Errorf("overload workload is missing foreground or scavenger class results")
		}
		if fg.Shed != 0 {
			return fmt.Errorf("overload: %d foreground requests shed — foreground must never be shed", fg.Shed)
		}
		if fg.Ops <= 0 {
			return fmt.Errorf("overload: no foreground completions in the window")
		}
		if scav.Shed <= 0 {
			return fmt.Errorf("overload: no scavenger requests shed — admission control is not engaging")
		}
	}
	inline, haveInline := byName["inline_small"]
	notify, haveNotify := byName["notify_small"]
	if haveInline && inline.InlineCompleted <= 0 {
		return fmt.Errorf("inline_small: no inline completions — adaptive completion is not engaging")
	}
	if haveNotify && notify.InlineCompleted != 0 {
		return fmt.Errorf("notify_small: %d inline completions with inline disabled", notify.InlineCompleted)
	}
	return nil
}

func validateFile(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	return validate(rep)
}
