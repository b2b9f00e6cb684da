// Command perfbench is the repository benchmark. It drives one named
// workload for a fixed number of seconds, checks the outputs, and
// prints one JSON result as the last line of standard output:
//
//	perfbench --workload small_iops --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing the
// benchmark's own calls into each layer and reading the layers' public
// counters, plus the tracing overhead against an untraced pass. The
// workloads, metric definitions and their rationale are in NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Parts    int // realtime: measured parts of this device's window

	// realtime: devices opened in turn over the window (0 = rtSegments)
	// and whether every bulk request is verified, not one in bulkSampleN
	Segments  int
	VerifyAll bool
}

// outcome is what one workload pass measured.
type outcome struct {
	E2E   map[string]float64 // end-to-end metrics, by name
	Layer map[string]float64 // per-layer metrics, by name
	Acct  Accounting
	Errs  []string // output-check failures
	Lanes []*Lane  // traced spans, written out at exit

	setups []float64   // realtime: timed device opens, summarized into setup_s
	due    *LatencyLog // fg_over_bulk: due time → retrieve, over all segments
}

func newOutcome() *outcome {
	return &outcome{E2E: make(map[string]float64), Layer: make(map[string]float64)}
}

func (o *outcome) errorf(format string, args ...any) {
	if len(o.Errs) < 20 {
		o.Errs = append(o.Errs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config) *outcome{
	"small_iops":    runSmallIOPS,
	"fg_over_bulk":  runFgOverBulk,
	"stream_ingest": runStreamIngest,
	"migrate_sweep": runMigrateSweep,
}

// perLayer lists every per-layer metric and its unit. A layer the
// workload bypasses reports 0.
var perLayer = func() []struct{ Name, Unit string } {
	var out []struct{ Name, Unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ Name, Unit string }{n, unit})
		}
	}
	add("us", "loadgen.late_p50_us", "loadgen.late_p99_us", "loadgen.due_p50_us", "loadgen.due_p99_us")
	add("count", "loadgen.outstanding_mean", "loadgen.fg_samples", "loadgen.fg_above_p99")
	add("us", "loadgen.fg_p99_all_us")
	add("count", "loadgen.fg_parts")
	add("fraction", "loadgen.failed_frac")
	for _, k := range FailKinds {
		add("count", "loadgen.failed."+k)
	}
	add("ns", "realtime.alloc.call_ns")
	add("1/op", "realtime.alloc.nil_per_op")
	add("ns", "realtime.submit.call_ns_per_req")
	add("1/op", "realtime.submit.kicks_per_op", "realtime.submit.shed_per_op")
	add("count", "realtime.submit.enqueue_retries")
	add("us", "rbq.staging_wait_us", "realtime.dispatch.wait_us", "realtime.dispatch.wait_p99_us")
	add("fraction", "realtime.dispatch.inline_frac")
	add("1/op", "realtime.dispatch.worker_wakes_per_op")
	add("count", "realtime.dispatch.aged_pops", "realtime.dispatch.retries")
	add("us", "realtime.controllers.ring_wait_us", "realtime.controllers.steal_delay_us", "realtime.controllers.copy_us")
	add("1/chunk", "realtime.controllers.steals_per_chunk")
	add("1/op", "realtime.controllers.chunks_per_op")
	add("us", "realtime.completion.dwell_us")
	add("ns", "realtime.completion.retrieve_call_ns")
	add("us/op", "realtime.completion.poll_block_us_per_op")
	add("fraction", "realtime.completion.poll_spin_hit_frac", "realtime.completion.empty_retrieve_frac")
	add("1/kop", "flight.breaches_per_kop")
	add("fraction", "streamrt.fast_chunk_frac")
	add("1/flush", "streamrt.fills_per_flush")
	add("count", "streamrt.tail_waits", "streamrt.stalls")
	for _, ph := range []string{"iface", "prep", "remap", "dmacfg", "copy", "release", "notify"} {
		add("us", "core.phase."+ph+"_us")
	}
	add("1/req", "core.syscalls_per_req", "core.worker_wakes_per_req")
	add("count", "core.races_detected")
	add("fraction", "dma.desc_reuse_frac", "dma.busy_frac")
	add("1/transfer", "dma.irqs_per_transfer")
	add("count", "dma.priority_bypasses")
	add("1/page", "vm.tlb_flushes_per_page")
	add("GB/s", "linuxmig.gb_per_s")
	for _, ph := range []string{"iface", "prep", "remap", "dmacfg", "copy", "release", "notify"} {
		add("us", "linuxmig.phase."+ph+"_us")
	}
	add("s", "sim.host_s", "sim.virt_s")
	add("x", "sim.speed")
	add("count", "sim.reps")
	add("%", "trace.overhead_pct")
	add("1/s", "trace.untraced_ops_per_s", "trace.traced_ops_per_s")
	add("count", "trace.spans_kept")
	for _, l := range []string{"loadgen", "realtime.alloc", "realtime.submit", "realtime.completion",
		"streamrt", "core", "vm", "workloads", "linuxmig", "sim"} {
		add("fraction", l+".self_frac")
	}
	return out
}()

// endToEnd lists every end-to-end metric and its unit; every workload
// reports all of them (NOTES.md defines each per workload).
var endToEnd = []struct{ Name, Unit string }{
	{"ops_per_s", "1/s"},
	{"bulk_gb_per_s", "GB/s"},
	{"fg_p50_us", "us"},
	{"fg_p99_us", "us"},
	{"cpu_cores", "cores"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ingest_mb_per_s", "MB/s"},
	{"probe_p99_us", "us"},
	{"move_gb_per_s", "GB/s"},
	{"move_cpu_frac", "fraction"},
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.Trace = traceFlag == 1
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0, --trace 0|1\n", names)
		os.Exit(2)
	}

	// Pin GOMAXPROCS to the CPUs this process may run on, so results
	// never depend on an inherited setting.
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "perfbench: env %s\n", envLine)

	cpus0 := readCPUs()
	var out *outcome
	if cfg.Trace {
		out = tracedRun(cfg, run)
	} else {
		out = run(cfg)
	}
	out.E2E["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "perfbench: hypervisor steal %.1f%% of the machine's busy CPU time over the run\n",
		100*(1-unstolen(readCPUs().since(cpus0))))
	out.Layer["loadgen.failed_frac"] = out.Acct.FailedFrac()
	for _, k := range FailKinds {
		out.Layer["loadgen.failed."+k] = float64(out.Acct.Failed[k])
	}

	res := result{
		Correct:   len(out.Errs) == 0,
		Attempted: out.Acct.Attempted,
		Failed:    out.Acct.FailedTotal(),
		Metrics:   make(map[string]metric),
	}
	if cfg.Trace {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{Value: out.Layer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{Value: out.E2E[m.Name], Unit: m.Unit}
		}
	}
	for _, k := range FailKinds {
		if n := out.Acct.Failed[k]; n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s: %d of %d attempted\n", k, n, out.Acct.Attempted)
		}
	}
	for _, e := range out.Errs {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", e)
	}
	if res.Attempted < 1 {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
	}
	if len(out.Lanes) > 0 {
		path := filepath.Join(envOr("PERFBENCH_OUT", ".bench_build"), "perfbench-traces",
			fmt.Sprintf("%s-seed%d.tsv", cfg.Workload, cfg.Seed))
		if err := WriteSpans(path, out.Lanes); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// tracedRun measures the workload untraced for half the time, then
// traced for the other half, and reports the traced pass's per-layer
// metrics plus the difference between the passes' headline throughput.
// The passes differ only in tracing: on the realtime workloads each
// opens one device and verifies every request.
func tracedRun(cfg config, run func(config) *outcome) *outcome {
	half := cfg
	half.Seconds = cfg.Seconds / 2
	half.Segments = 1
	half.VerifyAll = true
	half.Trace = false
	plain := run(half)
	half.Trace = true
	traced := run(half)
	traced.Acct.Add(plain.Acct)
	traced.Errs = append(traced.Errs, plain.Errs...)
	if t := traced.E2E["ops_per_s"]; t > 0 {
		traced.Layer["trace.overhead_pct"] = (plain.E2E["ops_per_s"]/t - 1) * 100
	}
	traced.Layer["trace.untraced_ops_per_s"] = plain.E2E["ops_per_s"]
	traced.Layer["trace.traced_ops_per_s"] = traced.E2E["ops_per_s"]
	var kept int
	for _, l := range traced.Lanes {
		kept += len(l.Spans())
	}
	traced.Layer["trace.spans_kept"] = float64(kept)
	return traced
}

// selfFractions sets <layer>.self_frac for every layer on the host
// lanes: the layer's self time over the kept spans as a share of the
// root spans' time.
func selfFractions(o *outcome, lanes ...*Lane) {
	self := make(map[string]int64)
	var root int64
	for _, l := range lanes {
		if l == nil || l.Virt {
			continue
		}
		selfTime := SelfTime
		if l.Overlapping {
			selfTime = ExclusiveTime
		}
		for k, v := range selfTime(l.Spans()) {
			if i := strings.IndexByte(k, ':'); i >= 0 {
				k = k[:i] // span names are layer:call
			}
			self[k] += v
		}
		root += RootTime(l.Spans())
	}
	if root <= 0 {
		return
	}
	for k, v := range self {
		o.Layer[k+".self_frac"] = float64(v) / float64(root)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuSnap holds each CPU's busy, idle and steal ticks so far (USER_HZ),
// from the per-CPU lines of /proc/stat; empty where there are none.
// Steal is time the hypervisor ran something else while the CPU had
// work.
type cpuSnap [][3]int64

func readCPUs() cpuSnap {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var snap cpuSnap
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line) // cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [9]int64
		for i := 1; i < 9; i++ {
			v[i], _ = strconv.ParseInt(f[i], 10, 64)
		}
		snap = append(snap, [3]int64{v[1] + v[2] + v[3] + v[6] + v[7], v[4] + v[5], v[8]})
	}
	return snap
}

// since returns the busy ticks of all CPUs since a, and the steal ticks
// that fell on busy CPUs: each CPU's steal weighted by the share of its
// other ticks it was busy. A vCPU also accrues steal while it idles and
// the hypervisor is slow to wake it, which stalls no running thread: on
// the 2-vCPU build host, the nearly idle second CPU of a simulated
// workload took most of the machine's steal, and left unweighted, that
// steal raised the corrected throughput of those runs by up to a quarter.
func (b cpuSnap) since(a cpuSnap) (busy, steal float64) {
	if len(a) != len(b) {
		return 0, 0
	}
	for i := range b {
		bu, id, st := b[i][0]-a[i][0], b[i][1]-a[i][1], b[i][2]-a[i][2]
		busy += float64(bu)
		if bu > 0 && st > 0 {
			steal += float64(st) * float64(bu) / float64(bu+id)
		}
	}
	return busy, steal
}

// unstolen returns the share of the CPU time this machine's work
// wanted that the hypervisor did not steal: busy over busy+steal ticks
// (from cpuSnap.since), 1 when nothing was stolen. A stolen CPU runs
// none of the process's threads, for as long as the steal lasts; on a
// shared host the steal comes in bursts that can outlast a whole run.
func unstolen(busy, steal float64) float64 {
	if steal <= 0 || busy <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// window tracks a measured interval's wall, CPU and machine CPU ticks.
type window struct {
	wall time.Time
	cpu  time.Duration
	cpus cpuSnap
}

func startWindow() window {
	return window{wall: time.Now(), cpu: cpuTime(), cpus: readCPUs()}
}

// ticks returns the machine's busy and steal ticks since the window
// started (see cpuSnap.since).
func (w window) ticks() (busy, steal float64) { return readCPUs().since(w.cpus) }

// cores returns CPU-seconds per wall-second since the window started,
// leaving out the share of the wall time the hypervisor stole (see
// unstolen).
func (w window) cores() float64 {
	el := time.Since(w.wall).Seconds() * unstolen(w.ticks())
	if el <= 0 {
		return 0
	}
	return (cpuTime() - w.cpu).Seconds() / el
}
