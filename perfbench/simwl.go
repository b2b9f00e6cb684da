package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/streamrt"
	"memif/internal/uapi"
	"memif/internal/vm"
	wload "memif/internal/workloads"
)

// The simulated workloads run the virtual-time machine. Their virtual
// results depend only on the seed, so a run repeats the scenario as
// often as its seconds allow, fails if any repetition's virtual results
// differ from the first, and summarizes host metrics over the
// repetitions.

const (
	ingestStreams   = 4
	ingestPerStream = 16 << 20
	probeGapMinNs   = 25_000
	probeGapMaxNs   = 75_000
	sweepWindow     = 4
	sweepTarget     = 16 << 20
	ingestRounds    = 12 // storm rounds over the same inputs per repetition
	mixPerSize      = 64 // the mixed stream has this many requests of each size 1..16 pages
	minReps         = 2
)

// The sweep grid: pages per request for each page size. 2 MB pages
// stop at 4 per request to keep a cell's regions (sweepWindow requests,
// twice for replication) within tens of MB of host memory.
var (
	sweepGrid = []struct {
		page  int64
		pages []int
	}{
		{hw.Page4K, []int{1, 4, 16}},
		{hw.Page64K, []int{1, 4, 16}},
		{hw.Page2M, []int{1, 4}},
	}
	sweepSystems = []string{sysLinux, sysMigrate, sysReplicate}
)

const (
	sysLinux     = "linux"
	sysMigrate   = "memif-migrate"
	sysReplicate = "memif-replicate"
)

// simRep is one repetition of a simulated scenario.
type simRep struct {
	virt  map[string]float64 // virtual-time results: identical for one seed
	layer map[string]float64 // per-layer values (deterministic counters)
	setup float64            // host seconds of machine and buffer set-up
	work  []float64          // host seconds of each measured region, in a fixed order
	ops   int64              // successful requests in the measured regions
	bytes int64              // their simulated payload
	acct  Accounting
	errs  []string
}

func newSimRep() *simRep {
	return &simRep{virt: make(map[string]float64), layer: make(map[string]float64)}
}

// unsteal takes out of the repetition's host times the share the
// hypervisor stole (see unstolen). The simulator runs one process at a
// time, so a stolen CPU stalls it for as long as the steal lasts.
func (r *simRep) unsteal(busy, steal float64) {
	f := unstolen(busy, steal)
	r.setup *= f
	for i := range r.work {
		r.work[i] *= f
	}
	r.layer["sim.host_s"] *= f
}

func (r *simRep) errorf(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// tracing hands out lanes drawing on one span budget; all nil when off.
type tracing struct {
	on     bool
	budget int
	lanes  []*Lane
}

func (t *tracing) lane(name string, virt bool) *Lane {
	if !t.on {
		return nil
	}
	var l *Lane
	if virt {
		l = NewVirtLane(name, &t.budget)
	} else {
		l = NewLane(name, &t.budget)
	}
	t.lanes = append(t.lanes, l)
	return l
}

// runSim repeats one scenario for cfg.Seconds (at least minReps times),
// checks that every repetition reproduced the first one's virtual
// results, and folds the repetitions into an outcome.
func runSim(cfg config, once func(seed uint64, tr *tracing) *simRep) *outcome {
	o := newOutcome()
	tr := &tracing{on: cfg.Trace, budget: spanCap}
	start := time.Now()
	w := startWindow()
	var reps []*simRep
	for len(reps) < minReps || time.Since(start).Seconds() < cfg.Seconds {
		runtime.GC() // start every repetition without the last one's garbage
		cpus := readCPUs()
		r := once(cfg.Seed, tr)
		r.unsteal(readCPUs().since(cpus))
		reps = append(reps, r)
		o.Acct.Add(r.acct)
		for _, e := range r.errs {
			o.errorf("%s", e)
		}
		if !reflect.DeepEqual(r.virt, reps[0].virt) {
			o.errorf("repetition %d: virtual-time results differ from repetition 0 (%v vs %v)", len(reps)-1, r.virt, reps[0].virt)
		}
	}
	cores := w.cores()
	var setups, hostS []float64
	for _, r := range reps {
		setups = append(setups, r.setup)
		hostS = append(hostS, r.layer["sim.host_s"])
	}
	// Every repetition does the same simulated work, so the host time of
	// that work is summed from each measured region's better-side quartile
	// over the repetitions: interference slows regions one at a time.
	var work float64
	for i := range reps[0].work {
		var t []float64
		for _, r := range reps {
			if i < len(r.work) {
				t = append(t, r.work[i])
			}
		}
		work += PartBest(t, false)
	}
	for k, v := range reps[0].virt {
		o.E2E[k] = v
	}
	for k, v := range reps[0].layer {
		o.Layer[k] = v
	}
	o.E2E["setup_s"] = Median(setups)
	if work > 0 {
		o.E2E["ops_per_s"] = float64(reps[0].ops) / work
		o.E2E["bulk_gb_per_s"] = float64(reps[0].bytes) / work / 1e9
	}
	o.E2E["cpu_cores"] = cores
	o.Layer["sim.host_s"] = Median(hostS)
	if h := o.Layer["sim.host_s"]; h > 0 {
		o.Layer["sim.speed"] = o.Layer["sim.virt_s"] / h
	}
	o.Layer["sim.reps"] = float64(len(reps))
	o.Lanes = tr.lanes
	selfFractions(o, tr.lanes...)
	return o
}

func runStreamIngest(cfg config) *outcome { return runSim(cfg, ingestOnce) }
func runMigrateSweep(cfg config) *outcome { return runSim(cfg, sweepOnce) }

// virtLatency records a completed request's virtual span.
func virtLatency(vl *Lane, r *uapi.MovReq, gen uint32) {
	vl.Add("core:MovReq", ReqID(int(r.Index()), gen), int64(r.Submitted), int64(r.Completed))
}

// ingestOnce is one stream_ingest scenario: four producer streams
// ingest disjoint slow-tier ranges through one StreamEngine while a
// prober on a sibling device migrates one page at a time, with seeded
// gaps between moves.
func ingestOnce(seed uint64, tr *tracing) *simRep {
	res := newSimRep()
	hostStart := time.Now()
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(hw.Page4K)
	app := core.Open(m, as, core.DefaultOptions())
	dev := core.Open(m, as, core.DefaultOptions())
	eopts := streamrt.DefaultEngineOptions()
	rng := rand.New(rand.NewSource(int64(seed)))
	// Which stream runs which kernel is seeded, so the seed changes the
	// storm's timing, not only its bytes: a held-out seed is a different
	// input.
	kernels := [ingestStreams]wload.Kernel{wload.Triad, wload.Add, wload.PGain, wload.Copy}
	rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	classes := [ingestStreams]uapi.Class{uapi.ClassBackground, uapi.ClassBackground, uapi.ClassScavenger, uapi.ClassScavenger}

	var (
		direct                [ingestStreams]uint64
		tailWaits, fillLatSum int64
		fillFailures          int64
		procLanes             []*Lane
		snap                  streamrt.EngineSnapshot
		stormStart, stormEnd  sim.Time
		hostStorm0            time.Time
		producers             int
		stormDone             bool
		probeLat              []int64
		probeOps              int64
	)

	probeLane, probeVirt := tr.lane("prober", false), tr.lane("prober-virt", true)
	m.Eng.Spawn("prober", func(p *sim.Proc) {
		defer app.Close()
		base, err := as.Mmap(p, hw.Page4K, hw.NodeSlow, "probe")
		if err != nil {
			res.errorf("stream_ingest: probe mmap: %v", err)
			return
		}
		payload := make([]byte, hw.Page4K)
		rng.Read(payload)
		if err := as.Write(p, base, payload); err != nil {
			res.errorf("stream_ingest: probe write: %v", err)
			return
		}
		dst := hw.NodeFast
		gens := make(map[uint32]uint32)
		for !stormDone {
			probeLane.Begin("core:AllocRequest")
			r := app.AllocRequest(p)
			probeLane.End(0)
			res.acct.Attempted++
			if r == nil {
				res.acct.Fail(FailNoSlots)
				res.errorf("stream_ingest: probe found no free request slot")
				return
			}
			gens[r.Index()]++
			r.Op, r.SrcBase, r.Length, r.DstNode, r.Class = uapi.OpMigrate, base, hw.Page4K, dst, uapi.ClassForeground
			probeLane.Begin("core:Submit")
			err := app.Submit(p, r)
			probeLane.End(ReqID(int(r.Index()), gens[r.Index()]))
			if err != nil {
				res.acct.Fail(FailSubmit)
				app.FreeRequest(p, r)
				return
			}
			var done *uapi.MovReq
			for done == nil {
				probeLane.Begin("core:RetrieveCompleted")
				done = app.RetrieveCompleted(p)
				probeLane.End(0)
				if done == nil {
					probeLane.Begin("core:Poll")
					app.Poll(p, 0)
					probeLane.End(0)
				}
			}
			if done.Status != uapi.StatusDone {
				res.acct.Fail(FailSimStatus)
			} else {
				if dst == hw.NodeFast {
					dst = hw.NodeSlow
				} else {
					dst = hw.NodeFast
				}
				if stormStart > 0 && done.Submitted >= stormStart && stormEnd == 0 {
					probeLat = append(probeLat, int64(done.Completed-done.Submitted))
					probeOps++
				}
			}
			virtLatency(probeVirt, done, gens[done.Index()])
			probeLane.Begin("core:FreeRequest")
			app.FreeRequest(p, done)
			probeLane.End(0)
			p.SleepNS(probeGapMinNs + rng.Int63n(probeGapMaxNs-probeGapMinNs+1))
		}
		back := make([]byte, hw.Page4K)
		if err := as.Read(p, base, back); err != nil || !bytes.Equal(back, payload) {
			res.acct.Fail(FailCorrupt)
			res.errorf("stream_ingest: probe page changed across %d migrations (read err %v)", probeOps, err)
		}
	})

	ingestLane := tr.lane("ingest", false)
	m.Eng.Spawn("ingest", func(p *sim.Proc) {
		defer dev.Close()
		cfg := streamrt.DefaultConfig()
		cfg.BufBytes = eopts.BufBytes
		var bases [ingestStreams]int64
		for i := range bases {
			ingestLane.Begin("vm:Mmap")
			b, err := as.Mmap(p, ingestPerStream, hw.NodeSlow, fmt.Sprintf("stream-%d", i))
			ingestLane.End(0)
			if err != nil {
				res.errorf("stream_ingest: mmap: %v", err)
				stormDone = true
				return
			}
			bases[i] = b
			ingestLane.Begin("workloads:FillInput")
			_, err = wload.FillInput(p, as, b, ingestPerStream, seed*ingestStreams+uint64(i)+1)
			ingestLane.End(0)
			if err != nil {
				res.errorf("stream_ingest: fill: %v", err)
				stormDone = true
				return
			}
			ingestLane.Begin("streamrt:RunDirect")
			dr, err := streamrt.RunDirect(p, as, kernels[i], b, ingestPerStream, cfg)
			ingestLane.End(0)
			if err != nil {
				res.errorf("stream_ingest: direct pass: %v", err)
				stormDone = true
				return
			}
			direct[i] = dr.Checksum
		}
		stormStart, hostStorm0 = p.Now(), time.Now()
		ingestLane.Begin("streamrt:OpenEngine")
		e, err := streamrt.OpenEngine(p, dev, eopts)
		ingestLane.End(0)
		if err != nil {
			res.errorf("stream_ingest: open engine: %v", err)
			stormDone = true
			return
		}
		// Each round reopens the four streams over the same inputs on
		// the long-lived engine, so one set-up serves every round.
		lanes := make([]*Lane, ingestStreams)
		for i := range lanes {
			lanes[i] = tr.lane(fmt.Sprintf("producer-%d", i), false)
			procLanes = append(procLanes, lanes[i])
		}
		for round := 0; round < ingestRounds; round++ {
			hostRound := time.Now()
			var got [ingestStreams]uint64
			for i := 0; i < ingestStreams; i++ {
				i := i
				ingestLane.Begin("streamrt:OpenStream")
				s, err := e.OpenStream(p, streamrt.StreamSpec{
					Kernel: kernels[i], Base: bases[i], Length: ingestPerStream,
					Class: classes[i], Credits: 2, Name: fmt.Sprintf("producer-%d-%d", i, round),
				})
				ingestLane.End(0)
				if err != nil {
					res.errorf("stream_ingest: open stream: %v", err)
					continue
				}
				producers++
				lane := lanes[i]
				m.Eng.Spawn(fmt.Sprintf("producer-%d", i), func(cp *sim.Proc) {
					defer func() { producers-- }()
					for {
						lane.Begin("streamrt:Consume")
						done, err := s.Consume(cp)
						lane.End(0)
						if err != nil {
							res.errorf("stream_ingest: %s: %v", s.Name(), err)
							break
						}
						if done {
							break
						}
					}
					got[i] = s.Checksum()
					lane.Begin("streamrt:Close")
					s.Close(cp)
					lane.End(0)
					st := s.Stats()
					tailWaits += st.TailWaits
					fillFailures += st.FillFailures
					fillLatSum += st.FillLatency.Sum
				})
			}
			for producers > 0 {
				p.SleepNS(100_000)
			}
			res.work = append(res.work, time.Since(hostRound).Seconds())
			for i := range direct {
				if direct[i] != got[i] {
					res.acct.Fail(FailCorrupt)
					res.errorf("stream_ingest: round %d stream %d checksum %#x, direct pass %#x", round, i, got[i], direct[i])
				}
			}
		}
		stormEnd = p.Now()
		snap = e.Snapshot()
		ingestLane.Begin("streamrt:Close")
		e.Close(p)
		ingestLane.End(0)
		stormDone = true
	})

	mainLane := tr.lane("sim", false)
	mainLane.Begin("sim:Run")
	virtEnd := m.Eng.Run()
	mainLane.End(0)
	hostEnd := time.Now()
	if mainLane != nil && len(mainLane.Spans()) > 0 {
		mainLane.Adopt(0, append(procLanes, probeLane, ingestLane)...)
	}

	if snap.Stalls != 0 {
		res.errorf("stream_ingest: %d stalls", snap.Stalls)
	}
	if want := int64(ingestRounds * ingestStreams * ingestPerStream / eopts.BufBytes); snap.FastChunks+snap.SlowChunks != want {
		res.errorf("stream_ingest: %d+%d chunks consumed, want %d", snap.FastChunks, snap.SlowChunks, want)
	}
	res.acct.Attempted += snap.Fills
	for i := int64(0); i < fillFailures; i++ {
		res.acct.Fail(FailSimStatus)
	}
	window := (stormEnd - stormStart).Seconds()
	if window <= 0 || len(probeLat) == 0 || len(res.work) != ingestRounds {
		res.errorf("stream_ingest: empty storm window (%v virt, %d probes)", window, len(probeLat))
		return res
	}
	total := float64(ingestRounds * ingestStreams * ingestPerStream)
	p50, p99 := ExactQuantile(probeLat, 0.5), ExactQuantile(probeLat, 0.99)
	res.virt["ingest_mb_per_s"] = total / 1e6 / window
	res.virt["fg_p50_us"] = float64(p50.Value) / 1e3
	res.virt["fg_p99_us"] = float64(p99.Value) / 1e3
	res.virt["probe_p99_us"] = float64(p99.Value) / 1e3
	res.virt["move_gb_per_s"] = float64(snap.BytesPrefetched) / 1e9 / window
	cpu := dev.UserMeter.Busy() + dev.KernMeter.Busy()
	if fillLatSum > 0 {
		res.virt["move_cpu_frac"] = float64(cpu) / float64(fillLatSum)
	}

	res.setup = hostStorm0.Sub(hostStart).Seconds()
	ds, as2 := dev.Stats(), app.Stats()
	res.ops = ds.Completed + probeOps
	res.bytes = ds.BytesMoved + probeOps*hw.Page4K

	L := res.layer
	L["loadgen.fg_samples"] = float64(p99.Count)
	L["loadgen.fg_above_p99"] = float64(p99.Above)
	if snap.Fills > 0 {
		L["streamrt.fast_chunk_frac"] = float64(snap.FastChunks) / float64(snap.Fills)
	}
	if snap.FillBatches > 0 {
		L["streamrt.fills_per_flush"] = float64(snap.Fills) / float64(snap.FillBatches)
	}
	L["streamrt.tail_waits"] = float64(tailWaits)
	L["streamrt.stalls"] = float64(snap.Stalls)
	coreLayer(L, []core.Stats{ds, as2})
	dmaLayer(L, m, virtEnd)
	L["sim.virt_s"] = virtEnd.Seconds()
	L["sim.host_s"] = hostEnd.Sub(hostStart).Seconds()
	return res
}

// coreLayer sets the core driver's per-request counters.
func coreLayer(L map[string]float64, st []core.Stats) {
	var sys, wakes, races, done int64
	for _, s := range st {
		sys += s.Syscalls
		wakes += s.WorkerWakes
		races += s.RacesDetected
		done += s.Completed + s.Failed
	}
	if done > 0 {
		L["core.syscalls_per_req"] = float64(sys) / float64(done)
		L["core.worker_wakes_per_req"] = float64(wakes) / float64(done)
	}
	L["core.races_detected"] = float64(races)
}

// dmaLayer sets the DMA engine's counters for one machine.
func dmaLayer(L map[string]float64, m *machine.Machine, virtEnd sim.Time) {
	s := m.DMA.Stats()
	if w := s.DescWritesFull + s.DescWritesReused; w > 0 {
		L["dma.desc_reuse_frac"] = float64(s.DescWritesReused) / float64(w)
	}
	if virtEnd > 0 {
		L["dma.busy_frac"] = float64(m.DMA.Meter.Busy()) / float64(virtEnd)
	}
	if s.Transfers > 0 {
		L["dma.irqs_per_transfer"] = float64(s.IRQs) / float64(s.Transfers)
	}
	L["dma.priority_bypasses"] = float64(s.PriorityBypasses)
}

// evalPlatform is KeyStone II with the fast node enlarged, as the
// paper's Fig 6/8 experiments emulate large pages by moving extra
// bytes per page rather than being bound by the 6 MB SRAM.
func evalPlatform() *hw.Platform {
	plat := hw.KeyStoneII()
	for i := range plat.Nodes {
		if plat.Nodes[i].ID == hw.NodeFast {
			plat.Nodes[i].Capacity = 2 << 30
		}
	}
	return plat
}

// cell is one simulated machine of the sweep, with the regions the
// benchmark wrote and the pattern key each must read back as.
type cell struct {
	res     *simRep
	m       *machine.Machine
	lane    *Lane
	vlane   *Lane
	name    string
	setup   time.Duration
	keyBase uint64
	expect  map[int64]region
	gens    map[uint32]uint32
	scratch *[]byte
}

// region is a mapped range and the key of its seeded byte pattern.
type region struct {
	length int64
	key    uint64
}

func newCell(res *simRep, keyBase uint64, scratch *[]byte, tr *tracing, name string) *cell {
	return &cell{res: res, keyBase: keyBase, scratch: scratch, name: name,
		lane: tr.lane(name, false), vlane: tr.lane(name+"-virt", true),
		expect: make(map[int64]region), gens: make(map[uint32]uint32)}
}

// fillPattern writes the seeded pattern named by key into buf.
func fillPattern(buf []byte, key uint64) {
	x := key*0x9E3779B97F4A7C15 | 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// buf returns the shared scratch buffer resized to n bytes.
func (c *cell) buf(n int64) []byte {
	if int64(cap(*c.scratch)) < n {
		*c.scratch = make([]byte, n)
	}
	return (*c.scratch)[:n]
}

// boot builds the cell's machine and address space; its host time
// counts as set-up.
func (c *cell) boot(pageBytes int64) *vm.AddressSpace {
	t := time.Now()
	c.m = machine.New(evalPlatform())
	as := c.m.NewAddressSpace(pageBytes)
	c.setup += time.Since(t)
	return as
}

// region maps length bytes on node and, when fill, writes a seeded
// pattern to it; its host time counts as set-up.
func (c *cell) region(p *sim.Proc, as *vm.AddressSpace, length int64, node hw.NodeID, fill bool) int64 {
	t := time.Now()
	defer func() { c.setup += time.Since(t) }()
	c.lane.Begin("vm:Mmap")
	base, err := as.Mmap(p, length, node, "r")
	c.lane.End(0)
	if err != nil {
		c.res.errorf("%s: mmap: %v", c.name, err)
		return 0
	}
	if fill {
		key := c.keyBase + uint64(len(c.expect)) + 1
		data := c.buf(length)
		fillPattern(data, key)
		c.lane.Begin("vm:Write")
		err = as.Write(p, base, data)
		c.lane.End(0)
		if err != nil {
			c.res.errorf("%s: write: %v", c.name, err)
		}
		c.expect[base] = region{length, key}
	}
	return base
}

// verify reads every expected region back after the measured region.
func (c *cell) verify(p *sim.Proc, as *vm.AddressSpace) {
	bases := make([]int64, 0, len(c.expect))
	for b := range c.expect {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		want := c.expect[b]
		got := c.buf(2 * want.length)
		got, exp := got[:want.length], got[want.length:]
		fillPattern(exp, want.key)
		c.lane.Begin("vm:Read")
		err := as.Read(p, b, got)
		c.lane.End(0)
		if err != nil || !bytes.Equal(got, exp) {
			c.res.acct.Fail(FailCorrupt)
			c.res.errorf("%s: region %#x reads back different bytes (err %v)", c.name, b, err)
		}
	}
}

// checkReplica compares a completed replica at dst with its source,
// reading the backing frames directly, so no virtual time passes. It
// returns the host time it took, which the measured region leaves out.
func (c *cell) checkReplica(as *vm.AddressSpace, src, dst, length int64) time.Duration {
	t := time.Now()
	for off := int64(0); off < length; off += as.PageBytes {
		s, d := as.FrameAt(src+off), as.FrameAt(dst+off)
		if s == nil || d == nil || !bytes.Equal(s.Data, d.Data) {
			c.res.acct.Fail(FailCorrupt)
			c.res.errorf("%s: replica %#x differs from its source %#x", c.name, dst, src)
			break
		}
	}
	return time.Since(t)
}

// clearReplica zeroes the frames backing a replica before it is
// replicated into again, so that every replicate must copy every byte.
// Like checkReplica it takes no virtual time and returns its host time.
func (c *cell) clearReplica(as *vm.AddressSpace, dst, length int64) time.Duration {
	t := time.Now()
	for off := int64(0); off < length; off += as.PageBytes {
		if f := as.FrameAt(dst + off); f != nil {
			clear(f.Data)
		}
	}
	return time.Since(t)
}

// submit allocates, fills in and submits one memif request.
func (c *cell) submit(p *sim.Proc, d *core.Device, op uapi.Op, src, dst, length int64, node hw.NodeID, cookie uint64) bool {
	c.lane.Begin("core:AllocRequest")
	r := d.AllocRequest(p)
	c.lane.End(0)
	c.res.acct.Attempted++
	if r == nil {
		c.res.acct.Fail(FailNoSlots)
		c.res.errorf("%s: no free request slot", c.name)
		return false
	}
	c.gens[r.Index()]++
	r.Op, r.SrcBase, r.DstBase, r.Length, r.DstNode, r.Cookie = op, src, dst, length, node, cookie
	c.lane.Begin("core:Submit")
	err := d.Submit(p, r)
	c.lane.End(ReqID(int(r.Index()), c.gens[r.Index()]))
	if err != nil {
		c.res.acct.Fail(FailSubmit)
		c.res.errorf("%s: submit: %v", c.name, err)
		d.FreeRequest(p, r)
		return false
	}
	return true
}

// reap blocks until at least one completion is retrieved, calling fn
// on each successful one (after which the slot is freed).
func (c *cell) reap(p *sim.Proc, d *core.Device, fn func(r *uapi.MovReq)) int {
	c.lane.Begin("core:Poll")
	d.Poll(p, 0)
	c.lane.End(0)
	n := 0
	for {
		c.lane.Begin("core:RetrieveCompleted")
		r := d.RetrieveCompleted(p)
		c.lane.End(0)
		if r == nil {
			return n
		}
		n++
		if r.Status != uapi.StatusDone {
			c.res.acct.Fail(FailSimStatus)
			c.res.errorf("%s: request failed: %v", c.name, r)
		} else {
			virtLatency(c.vlane, r, c.gens[r.Index()])
			fn(r)
		}
		c.lane.Begin("core:FreeRequest")
		d.FreeRequest(p, r)
		c.lane.End(0)
	}
}

// run spawns fn as the application and runs the machine.
func (c *cell) run(fn func(p *sim.Proc)) sim.Time {
	c.m.Eng.Spawn("app", fn)
	c.lane.Begin("sim:Run")
	end := c.m.Eng.Run()
	c.lane.End(0)
	c.res.layer["sim.virt_s"] += end.Seconds()
	return end
}

// sweepCtx carries one sweep repetition's seeded state: the shuffle
// source, the pattern keys handed to cells, and a scratch buffer reused
// for every region's fill and read-back.
type sweepCtx struct {
	rng     *rand.Rand
	seed    uint64
	cells   uint64
	scratch []byte
}

// key returns the next cell's pattern key base (regions add 1, 2, ...).
func (sc *sweepCtx) key() uint64 {
	sc.cells++
	return sc.seed<<32 | sc.cells<<16
}

// sweepAcc gathers one sweep repetition's cells.
type sweepAcc struct {
	fig8Memif, fig8Linux, fig6CPU []float64
	memifPhases, linuxPhases      map[string][]float64
	coreStats                     []core.Stats
	tlbFlushes, pagesMigrated     int64
	dmaBusy, virt                 sim.Time
	dma                           [5]int64 // full, reused, irqs, transfers, bypasses
}

// fig8Cell streams requests of pages×pageBytes until sweepTarget bytes
// have moved, sweepWindow in flight (memif) or one synchronous mbind at
// a time (Linux), and returns the sustained virtual throughput.
func fig8Cell(res *simRep, acc *sweepAcc, sc *sweepCtx, tr *tracing, sys string, pageBytes int64, pages int) {
	c := newCell(res, sc.key(), &sc.scratch, tr, fmt.Sprintf("fig8-%s-%d-%d", sys, pageBytes, pages))
	as := c.boot(pageBytes)
	reqBytes := int64(pages) * pageBytes
	nReqs := int(sweepTarget / reqBytes)
	if nReqs < 8 {
		nReqs = 8
	}
	var gbs float64
	var d *core.Device
	measured := time.Duration(0)
	switch sys {
	case sysLinux:
		mg := linuxmig.New(c.m, as)
		c.run(func(p *sim.Proc) {
			regions := make([]int64, sweepWindow)
			loc := make([]hw.NodeID, sweepWindow)
			for i := range regions {
				regions[i] = c.region(p, as, reqBytes, hw.NodeSlow, true)
			}
			flip := func(i int) bool {
				dst := hw.NodeFast
				if loc[i] == hw.NodeFast {
					dst = hw.NodeSlow
				}
				res.acct.Attempted++
				c.lane.Begin("linuxmig:MBind")
				err := mg.MBind(p, regions[i], reqBytes, dst)
				c.lane.End(0)
				if err != nil {
					res.acct.Fail(FailSimStatus)
					res.errorf("%s: mbind: %v", c.name, err)
					return false
				}
				loc[i] = dst
				return true
			}
			for i := range regions {
				flip(i)
			}
			h := time.Now()
			start := p.Now()
			for r := 0; r < nReqs; r++ {
				if flip(r % sweepWindow) {
					res.ops++
					res.bytes += reqBytes
				}
			}
			gbs = stats.ThroughputGBs(int64(nReqs)*reqBytes, p.Now()-start)
			measured = time.Since(h)
			c.verify(p, as)
		})
		acc.fig8Linux = append(acc.fig8Linux, gbs)
	case sysMigrate, sysReplicate:
		d = core.Open(c.m, as, core.DefaultOptions())
		end := c.run(func(p *sim.Proc) {
			defer d.Close()
			srcs := make([]int64, sweepWindow)
			dsts := make([]int64, sweepWindow)
			loc := make([]hw.NodeID, sweepWindow)
			for i := range srcs {
				srcs[i] = c.region(p, as, reqBytes, hw.NodeSlow, true)
				loc[i] = hw.NodeSlow
				if sys == sysReplicate {
					dsts[i] = c.region(p, as, reqBytes, hw.NodeFast, false)
					c.expect[dsts[i]] = c.expect[srcs[i]]
				}
			}
			// Every replica is checked when its request completes and
			// cleared before the next replicate into it; the host time
			// of both stays out of the measured region.
			var checks time.Duration
			check := func(r *uapi.MovReq) {
				if sys == sysReplicate {
					i := r.Cookie
					checks += c.checkReplica(as, srcs[i], dsts[i], reqBytes)
				}
			}
			send := func(i int) {
				if sys == sysReplicate {
					checks += c.clearReplica(as, dsts[i], reqBytes)
					c.submit(p, d, uapi.OpReplicate, srcs[i], dsts[i], reqBytes, hw.NodeFast, uint64(i))
					return
				}
				dst := hw.NodeFast
				if loc[i] == hw.NodeFast {
					dst = hw.NodeSlow
				}
				if c.submit(p, d, uapi.OpMigrate, srcs[i], 0, reqBytes, dst, uint64(i)) {
					loc[i] = dst
				}
			}
			for i := range srcs { // warm up chains and worker
				send(i)
			}
			for got := 0; got < sweepWindow; {
				got += c.reap(p, d, check)
			}
			h := time.Now()
			checks = 0
			start := p.Now()
			issued, done := 0, 0
			for ; issued < sweepWindow && issued < nReqs; issued++ {
				send(issued)
			}
			for done < nReqs {
				n := c.reap(p, d, func(r *uapi.MovReq) {
					check(r)
					res.ops++
					res.bytes += r.Length
					if issued < nReqs {
						send(int(r.Cookie))
						issued++
					}
				})
				done += n
			}
			gbs = stats.ThroughputGBs(int64(nReqs)*reqBytes, p.Now()-start)
			measured = time.Since(h) - checks
			c.verify(p, as)
		})
		acc.fig8Memif = append(acc.fig8Memif, gbs)
		acc.coreStats = append(acc.coreStats, d.Stats())
		s := c.m.DMA.Stats()
		acc.dma[0] += s.DescWritesFull
		acc.dma[1] += s.DescWritesReused
		acc.dma[2] += s.IRQs
		acc.dma[3] += s.Transfers
		acc.dma[4] += s.PriorityBypasses
		acc.dmaBusy += c.m.DMA.Meter.Busy()
		acc.virt += end
		if sys == sysMigrate {
			acc.tlbFlushes += as.TLBFlushes
			acc.pagesMigrated += int64(nReqs+sweepWindow) * int64(pages)
		}
	}
	res.setup += c.setup.Seconds()
	res.work = append(res.work, measured.Seconds())
}

// fig6Cell measures one request of pages×pageBytes after a warm-up
// request of the same shape: its Table 1 phase breakdown and the CPU
// share over its latency.
func fig6Cell(res *simRep, acc *sweepAcc, sc *sweepCtx, tr *tracing, sys string, pageBytes int64, pages int) {
	c := newCell(res, sc.key(), &sc.scratch, tr, fmt.Sprintf("fig6-%s-%d-%d", sys, pageBytes, pages))
	as := c.boot(pageBytes)
	length := int64(pages) * pageBytes
	var bd *stats.Breakdown
	switch sys {
	case sysLinux:
		mg := linuxmig.New(c.m, as)
		c.run(func(p *sim.Proc) {
			for i := 0; i < 2; i++ { // warm-up, then the measured request
				base := c.region(p, as, length, hw.NodeSlow, true)
				mg.Breakdown.Reset()
				res.acct.Attempted++
				c.lane.Begin("linuxmig:MBind")
				err := mg.MBind(p, base, length, hw.NodeFast)
				c.lane.End(0)
				if err != nil {
					res.acct.Fail(FailSimStatus)
					res.errorf("%s: mbind: %v", c.name, err)
				}
			}
			bd = mg.Breakdown.Clone()
			c.verify(p, as)
		})
		for _, ph := range stats.AllPhases {
			acc.linuxPhases[ph] = append(acc.linuxPhases[ph], float64(bd.Get(ph)))
		}
	case sysMigrate, sysReplicate:
		d := core.Open(c.m, as, core.DefaultOptions())
		c.run(func(p *sim.Proc) {
			defer d.Close()
			var lat sim.Time
			for i := 0; i < 2; i++ {
				src := c.region(p, as, length, hw.NodeSlow, true)
				var dst int64
				if sys == sysReplicate {
					dst = c.region(p, as, length, hw.NodeFast, false)
					c.expect[dst] = c.expect[src]
				}
				d.Breakdown.Reset()
				d.UserMeter.Reset()
				d.KernMeter.Reset()
				start := p.Now()
				if sys == sysReplicate {
					c.submit(p, d, uapi.OpReplicate, src, dst, length, hw.NodeFast, 0)
				} else {
					c.submit(p, d, uapi.OpMigrate, src, 0, length, hw.NodeFast, 0)
				}
				for got := 0; got < 1; {
					got += c.reap(p, d, func(r *uapi.MovReq) { lat = r.Completed - start })
				}
			}
			bd = d.Breakdown.Clone()
			busy := sim.MeterGroup{d.UserMeter, d.KernMeter}.Busy()
			if lat > 0 {
				acc.fig6CPU = append(acc.fig6CPU, float64(busy)/float64(lat))
			}
			c.verify(p, as)
		})
		for _, ph := range stats.AllPhases {
			acc.memifPhases[ph] = append(acc.memifPhases[ph], float64(bd.Get(ph)))
		}
	}
	res.setup += c.setup.Seconds()
}

// mixCell pipelines sweepWindow-deep memif migrations of 4 KB pages
// whose sizes are a fixed multiset (mixPerSize requests of each size
// 1..16 pages) in seeded order, each on a fresh region, and returns the
// virtual per-request latencies and the stream's throughput.
func mixCell(res *simRep, sc *sweepCtx, tr *tracing) (lat []int64, mbps float64) {
	c := newCell(res, sc.key(), &sc.scratch, tr, "mix")
	as := c.boot(hw.Page4K)
	var sizes []int
	for s := 1; s <= 16; s++ {
		for i := 0; i < mixPerSize; i++ {
			sizes = append(sizes, s)
		}
	}
	sc.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	d := core.Open(c.m, as, core.DefaultOptions())
	var measured time.Duration
	c.run(func(p *sim.Proc) {
		defer d.Close()
		bases := make([]int64, len(sizes))
		var total int64
		for i, s := range sizes {
			bases[i] = c.region(p, as, int64(s)*hw.Page4K, hw.NodeSlow, true)
			total += int64(s) * hw.Page4K
		}
		h := time.Now()
		start := p.Now()
		send := func(i int) {
			c.submit(p, d, uapi.OpMigrate, bases[i], 0, int64(sizes[i])*hw.Page4K, hw.NodeFast, uint64(i))
		}
		issued, done := 0, 0
		for ; issued < sweepWindow; issued++ {
			send(issued)
		}
		for done < len(sizes) {
			done += c.reap(p, d, func(r *uapi.MovReq) {
				lat = append(lat, int64(r.Completed-r.Submitted))
				res.ops++
				res.bytes += r.Length
				if issued < len(sizes) {
					send(issued)
					issued++
				}
			})
		}
		if el := (p.Now() - start).Seconds(); el > 0 {
			mbps = float64(total) / 1e6 / el
		}
		measured = time.Since(h)
		c.verify(p, as)
	})
	res.setup += c.setup.Seconds()
	res.work = append(res.work, measured.Seconds())
	return lat, mbps
}

// sweepOnce is one migrate_sweep scenario: the Fig 8 throughput sweep
// and the Fig 6 single-request breakdown over the page-size ×
// pages-per-request grid for memif-migrate, memif-replicate and the
// Linux baseline, plus the seeded mixed-size migration stream.
func sweepOnce(seed uint64, tr *tracing) *simRep {
	res := newSimRep()
	hostStart := time.Now()
	sc := &sweepCtx{rng: rand.New(rand.NewSource(int64(seed))), seed: seed}
	acc := &sweepAcc{memifPhases: make(map[string][]float64), linuxPhases: make(map[string][]float64)}
	for _, g := range sweepGrid {
		for _, n := range g.pages {
			for _, sys := range sweepSystems {
				// Each cell starts without the previous cell's garbage,
				// so its host timings and the peak RSS reflect one cell.
				runtime.GC()
				fig8Cell(res, acc, sc, tr, sys, g.page, n)
				runtime.GC()
				fig6Cell(res, acc, sc, tr, sys, g.page, n)
			}
		}
	}
	runtime.GC()
	lat, mbps := mixCell(res, sc, tr)

	p50, p99 := ExactQuantile(lat, 0.5), ExactQuantile(lat, 0.99)
	res.virt["fg_p50_us"] = float64(p50.Value) / 1e3
	res.virt["fg_p99_us"] = float64(p99.Value) / 1e3
	res.virt["probe_p99_us"] = float64(p99.Value) / 1e3
	res.virt["ingest_mb_per_s"] = mbps
	if g, ok := Geomean(acc.fig8Memif); ok {
		res.virt["move_gb_per_s"] = g
	} else {
		res.errorf("migrate_sweep: no positive memif throughput cells")
	}
	if g, ok := Geomean(acc.fig6CPU); ok {
		res.virt["move_cpu_frac"] = g
	} else {
		res.errorf("migrate_sweep: no positive memif CPU-share cells")
	}

	L := res.layer
	L["loadgen.fg_samples"] = float64(p99.Count)
	L["loadgen.fg_above_p99"] = float64(p99.Above)
	phaseKey := map[string]string{stats.PhaseInterface: "iface"}
	for _, ph := range stats.AllPhases {
		key := ph
		if k, ok := phaseKey[ph]; ok {
			key = k
		}
		L["core.phase."+key+"_us"] = Mean(acc.memifPhases[ph]) / 1e3
		L["linuxmig.phase."+key+"_us"] = Mean(acc.linuxPhases[ph]) / 1e3
	}
	if g, ok := Geomean(acc.fig8Linux); ok {
		L["linuxmig.gb_per_s"] = g
	}
	coreLayer(L, acc.coreStats)
	if w := acc.dma[0] + acc.dma[1]; w > 0 {
		L["dma.desc_reuse_frac"] = float64(acc.dma[1]) / float64(w)
	}
	if acc.virt > 0 {
		L["dma.busy_frac"] = float64(acc.dmaBusy) / float64(acc.virt)
	}
	if acc.dma[3] > 0 {
		L["dma.irqs_per_transfer"] = float64(acc.dma[2]) / float64(acc.dma[3])
	}
	L["dma.priority_bypasses"] = float64(acc.dma[4])
	if acc.pagesMigrated > 0 {
		L["vm.tlb_flushes_per_page"] = float64(acc.tlbFlushes) / float64(acc.pagesMigrated)
	}
	L["sim.host_s"] = time.Since(hostStart).Seconds()
	return res
}
