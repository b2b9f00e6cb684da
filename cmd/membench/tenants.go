// The tenants workload exercises the multi-tenant virtualization layer
// end to end, in two sub-scenarios on two devices:
//
//   - fairness: 1,021 equal-weight cohort tenants plus a weighted trio
//     (weights 1/2/4) are open on one device. The cohort phase offers
//     symmetric round-robin load and measures Jain's fairness index over
//     per-tenant completions. The trio phase then keeps all three
//     weighted tenants saturated at quotas well past the chunk rings'
//     capacity, with the controllers throttled by a chaos hook so the
//     device drains slower than the submitter refills on any host, and
//     the DRR scheduler — not the offered load — sets their completion
//     shares, which must land within 10% of the weight ratio.
//     (The phases are sequential on purpose: with 1k tenants sweeping,
//     the cohort exhausts the request slab and the trio would be
//     arrival-limited, measuring the harness instead of the scheduler.)
//
//   - isolation: a paced foreground victim shares a device with an
//     aggressor that floods its own quota (shedding) and mass-cancels
//     everything it submitted, over and over. A background "hum" tenant
//     keeps the device equally busy in both conditions so the comparison
//     isolates the aggressor's effect, not worker wake-up latency. The
//     victim must see zero sheds and its p99 must hold within one log2
//     bucket width (a doubling) of its uncontended baseline.
//
// Unlike the tiering scenario this runs in real time; the gates are
// structural (counts, shares, bucket identity) rather than absolute
// latencies, so they hold on loaded CI runners.
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs"
	"memif/internal/realtime"
)

// TenantsResult is the tenants section of the report (schema v5).
type TenantsResult struct {
	// Tenants is the peak concurrently-open tenant count across the
	// scenario's devices; CohortTenants the equal-weight fairness cohort.
	Tenants       int `json:"tenants"`
	CohortTenants int `json:"cohort_tenants"`

	// JainIndex is Jain's fairness index over the cohort tenants'
	// completions in the measure window (1.0 = perfectly fair).
	JainIndex float64 `json:"jain_index"`
	CohortOps int64   `json:"cohort_ops"`
	WindowSec float64 `json:"window_sec"`

	// WeightedShares is the weighted trio's split of its own completions
	// versus the share its DRR weight promises.
	WeightedShares []WeightedShare `json:"weighted_shares"`

	// Victim-vs-aggressor isolation: the victim's paced-foreground p99
	// with and without the aggressor storm, its shed count (must be 0),
	// and the aggressor's shed/cancel counters (must both fire).
	VictimBaselineOps   int64 `json:"victim_baseline_ops"`
	VictimStormOps      int64 `json:"victim_storm_ops"`
	VictimP99BaselineNs int64 `json:"victim_p99_baseline_ns"`
	VictimP99StormNs    int64 `json:"victim_p99_storm_ns"`
	VictimShed          int64 `json:"victim_shed"`
	AggressorShed       int64 `json:"aggressor_shed"`
	AggressorCanceled   int64 `json:"aggressor_canceled"`
}

// WeightedShare is one weighted-trio tenant's slice of its phase.
type WeightedShare struct {
	Name        string  `json:"name"`
	Weight      int64   `json:"weight"`
	Ops         int64   `json:"ops"`
	Share       float64 `json:"share"`        // of the trio's total completions
	TargetShare float64 `json:"target_share"` // weight / Σweights
}

// runTenants runs both sub-scenarios and distills them into the report
// row.
func runTenants(quick bool) *TenantsResult {
	res := &TenantsResult{}
	runTenantFairness(quick, res)
	runTenantIsolation(quick, res)
	return res
}

// drainFreeLoop retrieves and frees completions until stop is set and
// the device has drained.
func drainFreeLoop(d *realtime.Device, stop *atomic.Bool, wg *sync.WaitGroup) {
	defer wg.Done()
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

// runTenantFairness is the cohort + weighted-trio device.
func runTenantFairness(quick bool, res *TenantsResult) {
	const (
		cohortN    = 1021
		cohortSize = 4 << 10
		trioSize   = 32 << 10
		trioQuota  = 128
	)
	warmup, window := 500*time.Millisecond, 1500*time.Millisecond
	if quick {
		warmup, window = 200*time.Millisecond, 400*time.Millisecond
	}
	// Phase 2 throttles the controllers so the device, not the lone
	// submitter, is the bottleneck on any host: DRR can only decide
	// shares while every weighted tenant's bucket stays backlogged.
	var throttle atomic.Bool
	d := realtime.Open(realtime.Options{
		NumReqs: 512, Controllers: 2, StagingShards: 2, ChunkBytes: 8 << 10,
		Chaos: &realtime.ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) {
				if throttle.Load() {
					time.Sleep(20 * time.Microsecond)
				}
			},
		},
	})
	defer d.Close()

	cohort := make([]*realtime.Tenant, cohortN)
	for i := range cohort {
		t, err := d.OpenTenant(realtime.TenantConfig{
			Name: fmt.Sprintf("cohort-%04d", i), Weight: 1, SlotQuota: 2,
		})
		if err != nil {
			panic(err)
		}
		cohort[i] = t
	}
	trioWeights := []int{1, 2, 4}
	trio := make([]*realtime.Tenant, len(trioWeights))
	for i, w := range trioWeights {
		t, err := d.OpenTenant(realtime.TenantConfig{
			Name: fmt.Sprintf("weighted-%d", w), Weight: w, SlotQuota: trioQuota,
		})
		if err != nil {
			panic(err)
		}
		trio[i] = t
	}
	res.Tenants = cohortN + len(trio) + 3 // + isolation device's victim, aggressor, hum
	res.CohortTenants = cohortN

	dsts := make([][]byte, 512)
	for i := range dsts {
		dsts[i] = make([]byte, trioSize)
	}
	src := make([]byte, trioSize)

	var stop atomic.Bool
	var pwg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pwg.Add(1)
		go drainFreeLoop(d, &stop, &pwg)
	}

	// Phase 1 — cohort fairness. Symmetric round-robin sweeps, one small
	// request per tenant per sweep, so every tenant sees the same offered
	// load and the completion spread measures the scheduler, not the
	// harness.
	var stopCohort atomic.Bool
	var cwg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		shard := shard
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for !stopCohort.Load() {
				for i := shard; i < cohortN && !stopCohort.Load(); i += 2 {
					var r *realtime.Request
					for try := 0; try < 4 && r == nil; try++ {
						if r = d.AllocRequest(); r == nil {
							runtime.Gosched()
						}
					}
					if r == nil {
						continue // slab exhausted: catch this tenant next sweep
					}
					r.Src, r.Dst = src[:cohortSize], dsts[r.Index()][:cohortSize]
					if err := cohort[i].Submit(r); err != nil {
						d.FreeRequest(r) // quota full: the tenant already has service coming
					}
				}
			}
		}()
	}
	time.Sleep(warmup)
	c0 := d.Stats()
	t0 := time.Now()
	time.Sleep(window)
	c1 := d.Stats()
	res.WindowSec = time.Since(t0).Seconds()
	stopCohort.Store(true)
	cwg.Wait()

	// Tenant ids are dense and stable: the default namespace is 0, the
	// cohort occupies [1, cohortN], the trio the next three slots.
	var sum, sumSq float64
	for i := 0; i < cohortN; i++ {
		x := float64(c1.Tenants[1+i].Completed - c0.Tenants[1+i].Completed)
		res.CohortOps += int64(x)
		sum += x
		sumSq += x * x
	}
	if sumSq > 0 {
		res.JainIndex = sum * sum / (float64(cohortN) * sumSq)
	}

	// Phase 2 — weighted shares. One submitter keeps all three weighted
	// tenants saturated near quota with chunked transfers; three quotas
	// times four chunks each is several times the chunk rings' capacity,
	// and the throttled controllers drain slower than the submitter
	// refills, so dispatch backpressure reaches the submission queues and
	// DRR arbitration — not arrival order — decides the shares.
	throttle.Store(true)
	var stopTrio atomic.Bool
	var twg sync.WaitGroup
	twg.Add(1)
	go func() {
		defer twg.Done()
		for !stopTrio.Load() {
			idle := true
			for _, t := range trio {
				if t.Stats().InFlight >= trioQuota-8 {
					continue
				}
				r := d.AllocRequest()
				if r == nil {
					break
				}
				r.Src, r.Dst = src[:trioSize], dsts[r.Index()][:trioSize]
				if err := t.Submit(r); err != nil {
					d.FreeRequest(r)
				} else {
					idle = false
				}
			}
			if idle {
				runtime.Gosched()
			}
		}
	}()
	time.Sleep(warmup)
	w0 := d.Stats()
	time.Sleep(window)
	w1 := d.Stats()
	stopTrio.Store(true)
	twg.Wait()
	stop.Store(true)
	pwg.Wait()

	totalW, totalOps := 0, int64(0)
	trioOps := make([]int64, len(trio))
	for i, t := range trio {
		id := t.ID()
		trioOps[i] = w1.Tenants[id].Completed - w0.Tenants[id].Completed
		totalOps += trioOps[i]
		totalW += trioWeights[i]
	}
	for i, t := range trio {
		share := 0.0
		if totalOps > 0 {
			share = float64(trioOps[i]) / float64(totalOps)
		}
		res.WeightedShares = append(res.WeightedShares, WeightedShare{
			Name:        t.Name(),
			Weight:      int64(trioWeights[i]),
			Ops:         trioOps[i],
			Share:       share,
			TargetShare: float64(trioWeights[i]) / float64(totalW),
		})
	}
}

// runTenantIsolation is the victim-vs-aggressor device: baseline window
// first (victim paced over the background hum), then the same paced
// victim under the aggressor's overload + cancel storm.
func runTenantIsolation(quick bool, res *TenantsResult) {
	const (
		victimSize = 4 << 10
		bgSize     = 32 << 10
	)
	// Interleaved pooling, in the spirit of the tracing-overhead guard's
	// min-of-N: three baseline/storm window pairs alternate and each
	// condition's latency histogram is pooled across its three windows
	// before taking the p99. Interleaving shares runner noise between
	// the conditions instead of concentrating it in one contiguous
	// stretch; a real isolation leak persists in every storm window and
	// survives the pooling.
	const rounds = 3
	settle, window := 100*time.Millisecond, 400*time.Millisecond
	if quick {
		settle, window = 50*time.Millisecond, 150*time.Millisecond
	}
	// The inline threshold is frozen between the victim's and the bg
	// request sizes so both windows use identical service paths: the
	// victim completes inline on the worker, the 32 KB background
	// traffic is chunked through the controllers. Leaving the adaptive
	// retuner on would let the storm shift the victim's own path
	// between the windows, and the comparison would measure the retuner
	// rather than tenant isolation.
	d := realtime.Open(realtime.Options{
		NumReqs: 128, Controllers: 2, StagingShards: 2, ChunkBytes: 8 << 10,
		QoS: realtime.QoSOptions{InlineThreshold: 8 << 10, DisableRetune: true},
	})
	defer d.Close()

	victim, err := d.OpenTenant(realtime.TenantConfig{Name: "victim", Weight: 2, SlotQuota: 16})
	if err != nil {
		panic(err)
	}
	aggr, err := d.OpenTenant(realtime.TenantConfig{Name: "aggressor", Weight: 1, SlotQuota: 16})
	if err != nil {
		panic(err)
	}
	hum, err := d.OpenTenant(realtime.TenantConfig{Name: "hum", Weight: 1, SlotQuota: 8})
	if err != nil {
		panic(err)
	}

	dsts := make([][]byte, 128)
	for i := range dsts {
		dsts[i] = make([]byte, bgSize)
	}
	src := make([]byte, bgSize)

	var stop atomic.Bool
	var pwg sync.WaitGroup
	pwg.Add(1)
	go drainFreeLoop(d, &stop, &pwg)

	var wg sync.WaitGroup
	// Hum: closed-loop background transfers in BOTH windows, paced by
	// its own admission (quota full → brief sleep). It keeps the worker,
	// the controllers, and the background class busy, so the baseline
	// and storm windows differ only by the aggressor's behavior — not by
	// wake-up latency — and the aggressor's scavenger-class traffic
	// stays starved behind it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			r := d.AllocRequest()
			if r == nil {
				runtime.Gosched()
				continue
			}
			r.Class = realtime.ClassBackground
			r.Src, r.Dst = src[:bgSize], dsts[r.Index()][:bgSize]
			if err := hum.Submit(r); err != nil {
				d.FreeRequest(r)
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	// Victim: paced foreground, small inline-completed requests, well
	// under its own quota — shed-free by construction unless another
	// tenant's pressure leaks through admission.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			r := d.AllocRequest()
			if r == nil {
				continue
			}
			r.Src, r.Dst = src[:victimSize], dsts[r.Index()][:victimSize]
			if err := victim.Submit(r); err != nil {
				// Leave the evidence in the victim's shed counter; the
				// validate gate turns any shed into a failure.
				d.FreeRequest(r)
			}
		}
	}()

	// Aggressor storm: a scavenger-class flood plus periodic mass-cancels
	// of everything it has in flight. Strict priority starves the
	// scavenger class behind the hum's background traffic, so the
	// aggressor's in-flight count pins at its quota and every further
	// attempt sheds — no CPU-monopolizing burst loop needed, which
	// matters on single-core runs where a burst would delay the victim
	// through the Go scheduler rather than through the device.
	// stormOn gates the aggressor between window pairs; while off it
	// cancels its residue and idles. While on, every ~10ms it floods a
	// scavenger-class burst well past its own quota — the first sixteen
	// fill the quota, the rest shed at admission — then mass-cancels
	// whatever is still queued. Each burst-and-cancel costs tens of
	// microseconds out of a 10ms period, well under 1% of the window, so
	// the victim's p99 — an order statistic over the worst 1% — cannot
	// be an artifact of the aggressor goroutine's own CPU time; any p99
	// movement it causes must come through the device.
	var stormOn, stopStorm atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopStorm.Load() {
			if !stormOn.Load() {
				aggr.CancelAll()
				time.Sleep(2 * time.Millisecond)
				continue
			}
			for i := 0; i < 28; i++ {
				r := d.AllocRequest()
				if r == nil {
					break
				}
				r.Class = realtime.ClassScavenger
				r.Src, r.Dst = src[:bgSize], dsts[r.Index()][:bgSize]
				if err := aggr.Submit(r); err != nil {
					d.FreeRequest(r) // ErrOverload: the shed the gate demands
				}
			}
			aggr.CancelAll()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Alternate baseline and storm windows; the victim's pacing and the
	// hum never change, only the aggressor toggles.
	measure := func(on bool, pool *obs.HistogramSnapshot) int64 {
		stormOn.Store(on)
		time.Sleep(settle)
		s0 := victim.Stats()
		time.Sleep(window)
		s1 := victim.Stats()
		lat := s1.Latency.Delta(s0.Latency)
		pool.Count += lat.Count
		pool.Sum += lat.Sum
		for i := range lat.Buckets {
			pool.Buckets[i] += lat.Buckets[i]
		}
		return s1.Completed - s0.Completed
	}
	var basePool, stormPool obs.HistogramSnapshot
	for round := 0; round < rounds; round++ {
		res.VictimBaselineOps += measure(false, &basePool)
		res.VictimStormOps += measure(true, &stormPool)
	}
	res.VictimP99BaselineNs = int64(basePool.QuantileInterp(0.99))
	res.VictimP99StormNs = int64(stormPool.QuantileInterp(0.99))

	stopStorm.Store(true)
	stop.Store(true)
	wg.Wait()
	pwg.Wait()

	res.VictimShed = victim.Stats().Shed
	ast := aggr.Stats()
	res.AggressorShed = ast.Shed
	res.AggressorCanceled = ast.Canceled
}

// validateTenants enforces the schema-v5 multi-tenant invariants: a
// four-digit tenant fleet, cohort fairness by Jain's index, weighted
// shares within 10% of the DRR weights, and victim isolation — zero
// sheds and a p99 that holds its uncontended log2 bucket — while the
// aggressor demonstrably overloaded and cancel-stormed its own lane.
func validateTenants(rep Report) error {
	t := rep.Tenants
	if t == nil {
		return fmt.Errorf("version %d report has no tenants section", rep.Version)
	}
	if t.Tenants < 1000 {
		return fmt.Errorf("tenants: %d tenants, want >= 1000", t.Tenants)
	}
	if t.CohortOps <= 0 {
		return fmt.Errorf("tenants: no cohort completions in the window")
	}
	if t.JainIndex < 0.90 {
		return fmt.Errorf("tenants: Jain index %.4f < 0.90 across the equal-weight cohort", t.JainIndex)
	}
	if len(t.WeightedShares) == 0 {
		return fmt.Errorf("tenants: no weighted-share results")
	}
	for _, w := range t.WeightedShares {
		if w.Ops <= 0 {
			return fmt.Errorf("tenants: weighted tenant %s completed nothing", w.Name)
		}
		if rel := (w.Share - w.TargetShare) / w.TargetShare; rel > 0.10 || rel < -0.10 {
			return fmt.Errorf("tenants: %s share %.4f is %.1f%% off its weight share %.4f (tolerance 10%%)",
				w.Name, w.Share, rel*100, w.TargetShare)
		}
	}
	if t.VictimBaselineOps <= 0 || t.VictimStormOps <= 0 {
		return fmt.Errorf("tenants: victim recorded %d baseline / %d storm ops, want both > 0",
			t.VictimBaselineOps, t.VictimStormOps)
	}
	if t.VictimShed != 0 {
		return fmt.Errorf("tenants: victim shed %d times — the aggressor's overload leaked through admission", t.VictimShed)
	}
	// "Holds its log2 bucket" as a noise-robust gate: the storm p99 must
	// stay within one bucket width — a doubling — of the uncontended
	// p99. Exact bucket identity would turn into a coin flip whenever
	// the true p99 sits near a power-of-two boundary, which depends on
	// the machine, not on the device's isolation.
	if t.VictimP99StormNs > 2*t.VictimP99BaselineNs {
		return fmt.Errorf("tenants: victim p99 under the storm (%dns) degraded past a log2 bucket width of its uncontended p99 (%dns)",
			t.VictimP99StormNs, t.VictimP99BaselineNs)
	}
	if t.AggressorShed <= 0 {
		return fmt.Errorf("tenants: aggressor was never shed — per-tenant admission is not engaging")
	}
	if t.AggressorCanceled <= 0 {
		return fmt.Errorf("tenants: aggressor canceled nothing — the cancel storm never claimed a request")
	}
	return nil
}

// reportTenants prints the human summary lines.
func reportTenants(t *TenantsResult) {
	fmt.Fprintf(os.Stderr,
		"membench: tenants      %d tenants  Jain %.4f over %d cohort ops  victim p99 %dns vs %dns (shed %d)  aggressor shed %d canceled %d\n",
		t.Tenants, t.JainIndex, t.CohortOps,
		t.VictimP99StormNs, t.VictimP99BaselineNs, t.VictimShed,
		t.AggressorShed, t.AggressorCanceled)
	for _, w := range t.WeightedShares {
		fmt.Fprintf(os.Stderr, "membench:   weight %d    %10d ops  share %.4f (target %.4f)\n",
			w.Weight, w.Ops, w.Share, w.TargetShare)
	}
}
