package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
	"gs3/internal/traffic"
)

// workload is one scenario the lifecycle runs. The three workloads
// stress different layers; README.md records why each was chosen.
type workload struct {
	name  string
	r     float64 // cell radius R
	nodes int     // deployed node target (grid spacing 0.9·Rt)
	// strike is the disaster radius in search radii (SR = √3R + 2Rt).
	// Each round strikes `strikes` times in turn, healing to the
	// fixpoint after each, at cells spread evenly on the circle of half
	// the deployment radius (see centres); simulated heal figures are
	// means over the strikes, which steadies them across seeds.
	strike  float64
	strikes int
	faults  fault.Plan
	// streak is how many consecutive sweep boundaries the dynamic
	// fixpoint must hold for a convergence wait to succeed, and budget
	// how many sweeps the wait may take before it counts as failed.
	streak, budget int
	packets        int
	perBeat        float64 // offered load: packets per heartbeat, open loop
	p2p            float64 // point-to-point share; the rest is convergecast
	hopRetries     int     // per-hop retry budget (0: traffic default, 3)
	drainBeats     float64 // drain window in heartbeats (0: traffic default, 20)
	// probe makes every round end with routeProbe.
	probe bool
}

var workloads = []workload{
	{
		name: "crater", r: 100, nodes: 100_000, strike: 2, strikes: 1,
		streak: 2, budget: 60,
		packets: 5_000, perBeat: 1_000,
	},
	{
		name: "dataplane", r: 50, nodes: 5_000, strike: 0.5, strikes: 8,
		streak: 2, budget: 60,
		packets: 300_000, perBeat: 5_000, p2p: 0.3,
		probe: true,
	},
	{
		name: "lossy", r: 100, nodes: 20_000, strike: 1, strikes: 6,
		faults: fault.Plan{Loss: 0.05, Dup: 0.02, Jitter: 0.3},
		streak: 3, budget: 120,
		packets: 20_000, perBeat: 1_000, p2p: 0.3,
		hopRetries: 8, drainBeats: 100,
	},
}

// routeProbe is a fixed scenario, the same whatever the --seed, on
// which point-to-point routing is known to loop: a 20k-node field
// without faults is struck at once at six points spread evenly on the
// circle of half the deployment radius, heals to the fixpoint, then
// serves only point-to-point packets. With routeProbeSeed, 10 of its
// 5,000 packets circle the healed craters until the TTL drops them.
// The probe counts its lost packets as failed operations, so that the
// fault shows in every round of a workload that runs it, as the same
// share of its operations whatever the seed.
var routeProbe = workload{
	name: "route-probe", r: 100, nodes: 20_000, strike: 1, strikes: 6,
	streak: 2, budget: 60,
	packets: 5_000, perBeat: 1_000, p2p: 1,
	hopRetries: 8, drainBeats: 100,
}

const routeProbeSeed = 4

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the scenario: a jittered triangular grid whose disk
// holds about w.nodes nodes, with the workload's fault plan and the
// serial sweep executor.
func (w workload) options(seed uint64) netsim.Options {
	opt := netsim.DefaultOptions(w.r, 1)
	opt.RegionRadius = math.Sqrt(float64(w.nodes) * opt.GridSpacing * opt.GridSpacing * math.Sqrt(3) / 2 / math.Pi)
	opt.Seed = seed
	opt.Faults = w.faults
	opt.SweepWorkers = 0
	return opt
}

// ring returns w.strikes points spread evenly on the circle of radius
// db/2 around the deployment centre.
func (w workload) ring(db float64) []geom.Point {
	out := make([]geom.Point, w.strikes)
	for i := range out {
		a := 2 * math.Pi * float64(i) / float64(w.strikes)
		out[i] = geom.Point{X: db / 2 * math.Cos(a), Y: db / 2 * math.Sin(a)}
	}
	return out
}

// centres returns the strike centres of the seeded lifecycle: for each
// point of the ring, the ideal location (IL) of the settled head
// nearest to it. ILs are points of the hexagonal lattice anchored at
// the big node, so the centres are the same for every seed. So are the
// ring points, but with strikes there the healed craters make
// point-to-point routing loop on some seeds and not on others (see
// routeProbe), and a share of failed operations that moved with the
// seed would not compare between runs. Lattice-centred strikes lost no
// packet on any seed tried; routeProbe measures the loop instead, the
// same in every run.
func (w workload) centres(db float64, heads []headState) []geom.Point {
	out := w.ring(db)
	for i, p := range out {
		best := math.Inf(1)
		for _, h := range heads {
			if d := h.il.Dist(p); d < best {
				best, out[i] = d, h.il
			}
		}
	}
	return out
}

// trafficConfig returns the data-plane load for a network with
// heartbeat interval hb.
func (w workload) trafficConfig(hb float64) traffic.Config {
	return traffic.Config{
		Packets:     w.packets,
		Rate:        w.perBeat / hb,
		P2PFraction: w.p2p,
		HopRetries:  w.hopRetries,
		Drain:       w.drainBeats * hb,
	}
}

// Lifecycle phases whose counters are recorded separately.
const (
	phConfigure = iota
	phSettle
	phHeal
	phTraffic
	numPhases
)

var phaseNames = [numPhases]string{"configure", "settle", "heal", "traffic"}

// simStats holds every figure of a round that the simulation alone
// determines. For a fixed seed it must be identical in every round
// and on every host; a change that only speeds the program up must
// leave it unchanged.
type simStats struct {
	deployed    int
	killed      int
	heads       int // head count at the settled state
	configureVS float64
	// healRounds and healMsgs run from each strike to the first sweep
	// boundary of the winning fixpoint streak, one entry per strike;
	// healMsgs counts the transmissions sent near the strike.
	healRounds []float64
	healMsgs   []float64
	settled    bool // the settle wait converged
	healed     bool // the heal wait converged
	checkCalls [numPhases]int
	events     [numPhases]uint64 // engine events fired
	radio      [numPhases]radio.Stats
	healCore   core.Metrics // protocol actions over the heal phase
	faults     radio.Stats  // whole lifecycle, for the fault counters
	traffic    traffic.Report
	probe      traffic.Report // routeProbe, on workloads that run it
}

// diff names the first field in which b differs from s, or returns ""
// when the two are identical.
func (s simStats) diff(b simStats) string {
	if reflect.DeepEqual(s, b) {
		return ""
	}
	va, vb := reflect.ValueOf(s), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		// fmt prints unexported fields, and %v of a float is exact.
		if x, y := fmt.Sprintf("%+v", va.Field(i)), fmt.Sprintf("%+v", vb.Field(i)); x != y {
			return fmt.Sprintf("%s: %s != %s", va.Type().Field(i).Name, x, y)
		}
	}
	return "differs"
}

// roundResult is one lifecycle round: its simulated figures, its host
// timings and the outcome of its output checks.
type roundResult struct {
	sim simStats
	// setup runs from the start of the round until the settle wait
	// ends; heal from a strike to the first boundary of the winning
	// fixpoint streak, averaged over the strikes; trafficRun is
	// Plane.Run.
	setup, heal, trafficRun time.Duration
	wall                    time.Duration // the whole round, measured by the caller
	heapPerNode             float64       // live heap after a forced GC at the settled state
	allocsPerPkt            float64
	allocBytesPerPkt        float64
	gcCycles                uint32
	gcPause                 time.Duration
	attempted, failed       uint64
	violations              []string
	trace                   *tracer
}

// wait is the outcome of one convergence wait.
type wait struct {
	ok bool
	// at, vs and msgs are the host time, the virtual time and the
	// message count at the first boundary of the winning streak.
	at   time.Time
	vs   float64
	msgs uint64
	snap core.Snapshot // the snapshot of the last boundary evaluated
}

// converge evaluates the dynamic fixpoint at sweep boundaries, running
// one maintenance sweep between boundaries, until it holds at w.streak
// consecutive boundaries or w.budget sweeps elapse. It is
// netsim.RunChaos with each layer call timed on its own. With
// sweepFirst false the current state is the first boundary, as in
// RunChaos; the heal wait starts so, right after the strike. The
// settle wait sweeps first: a structure is settled when it survives its
// own maintenance, and right after configuration the first sweep still
// shifts a few rim cells of a structure that already satisfies the
// fixpoint. msgs is the message counter the wait reads at the first
// boundary of its streak.
func converge(s *netsim.Sim, w workload, tr *tracer, sweepFirst bool, calls *int, msgs *uint64) wait {
	var wt wait
	run := 0
	i := 0
	if sweepFirst {
		i = 1
	}
	for ; ; i++ {
		if i > 0 {
			sp := tr.begin("core.sweep")
			s.RunSweeps(1)
			tr.end(sp)
		}
		sp := tr.begin("core.snapshot")
		snap := s.Net.Snapshot()
		tr.end(sp)
		sp = tr.begin("check.fixpoint")
		ok := check.Fixpoint(snap, check.Dynamic).OK()
		tr.end(sp)
		*calls++
		if ok {
			if run == 0 {
				wt.at, wt.vs, wt.msgs = time.Now(), s.Net.Engine().Now(), *msgs
			}
			run++
		} else {
			run = 0
		}
		if run >= w.streak || i == w.budget {
			wt.ok = run >= w.streak
			wt.snap = snap
			return wt
		}
	}
}

// counters is the public counter state of every layer at one instant.
type counters struct {
	fired uint64
	radio radio.Stats
	core  core.Metrics
}

func read(s *netsim.Sim) counters {
	return counters{s.Net.Engine().Fired(), s.Net.Medium().Stats(), s.Net.Metrics()}
}

// record stores the counter deltas of phase ph.
func (st *simStats) record(ph int, before, after counters) {
	st.events[ph] = after.fired - before.fired
	st.radio[ph] = after.radio.Sub(before.radio)
}

// runRound runs one lifecycle of w with the given seed. A nil tracer
// records nothing; every layer call is made the same way either way.
func runRound(w workload, seed uint64, tr *tracer) (roundResult, error) {
	var rr roundResult
	st := &rr.sim
	opt := w.options(seed)
	hb := opt.Config.HeartbeatInterval
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	t0 := time.Now()
	root := tr.begin("round")

	// Build, configure and settle.
	ph := tr.begin("phase.setup")
	sp := tr.begin("netsim.build")
	s, err := netsim.Build(opt)
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	c0 := read(s)
	sp = tr.begin("core.configure")
	st.configureVS, err = s.Configure()
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	c1 := read(s)
	st.record(phConfigure, c0, c1)
	s.Net.StartMaintenance(core.VariantD)
	settle := converge(s, w, tr, true, &st.checkCalls[phSettle], new(uint64))
	rr.setup = time.Since(t0)
	c2 := read(s)
	st.record(phSettle, c1, c2)
	st.settled = settle.ok
	tr.end(ph)

	// A wait that ran out of budget counts as a failed operation; the
	// checks speak only of operations that succeeded.
	ph = tr.begin("phase.verify")
	st.deployed = len(s.Dep.Positions)
	st.heads = len(settle.snap.Heads())
	if settle.ok {
		v, _ := checkStructure(settle.snap)
		rr.violations = append(rr.violations, prefix("settled: ", v)...)
		rr.violations = append(rr.violations, prefix("settled: ", checkHeadCount(settle.snap, opt.RegionRadius))...)
	}
	before := headStates(settle.snap)
	settle.snap = core.Snapshot{} // not part of the live heap measured next
	tr.end(ph)

	ph = tr.begin("phase.heap")
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rr.heapPerNode = float64(mem.HeapAlloc) / float64(st.deployed)
	tr.end(ph)

	// Strike and heal, once per strike centre. Healing messages are
	// those sent within two search radii of the strike disk: under a
	// fault plan the boundary heads of the whole field re-scan every few
	// sweeps, and that background would otherwise swamp the repair.
	radius := w.strike * opt.Config.SearchRadius()
	near := radius + 2*opt.Config.SearchRadius()
	var chain int
	var healed time.Duration
	st.healed = true
	for _, centre := range w.centres(opt.RegionRadius, before) {
		ph = tr.begin("phase.heal")
		var msgs uint64
		s.Net.Medium().TraceTraffic(func(from geom.Point) {
			if from.Dist(centre) <= near {
				msgs++
			}
		})
		vs0 := s.Net.Engine().Now()
		t1 := time.Now()
		sp = tr.begin("netsim.killdisk")
		st.killed += s.KillDisk(centre, radius)
		tr.end(sp)
		heal := converge(s, w, tr, false, &st.checkCalls[phHeal], &msgs)
		s.Net.Medium().TraceTraffic(nil)
		if heal.ok {
			healed += heal.at.Sub(t1)
			st.healRounds = append(st.healRounds, (heal.vs-vs0)/hb)
			st.healMsgs = append(st.healMsgs, float64(heal.msgs))
		} else {
			st.healed = false
			rr.failed++
		}
		tr.end(ph)

		ph = tr.begin("phase.verify")
		var v []string
		v, chain = checkStructure(heal.snap)
		if heal.ok {
			rr.violations = append(rr.violations, prefix("healed: ", v)...)
			rr.violations = append(rr.violations, prefix("healed: ", checkLocality(before, heal.snap, centre, radius))...)
		}
		before = headStates(heal.snap)
		tr.end(ph)
	}
	rr.heal = healed / time.Duration(w.strikes)
	c3 := read(s)
	st.record(phHeal, c2, c3)
	st.healCore = subMetrics(c3.core, c2.core)

	// Serve traffic with maintenance interleaved.
	ph = tr.begin("phase.traffic")
	cfg := w.trafficConfig(hb)
	sp = tr.begin("traffic.new")
	plane, err := s.ServeTraffic(cfg)
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c4 := read(s)
	sp = tr.begin("traffic.run")
	t2 := time.Now()
	st.traffic = plane.Run()
	rr.trafficRun = time.Since(t2)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	c5 := read(s)
	st.record(phTraffic, c4, c5)
	st.faults = c5.radio
	if g := st.traffic.Generated; g > 0 {
		rr.allocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / float64(g)
		rr.allocBytesPerPkt = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(g)
	}
	tr.end(ph)

	ph = tr.begin("phase.verify")
	rr.violations = append(rr.violations, prefix("traffic: ", checkTraffic(st.traffic, cfg.Packets, w.p2p == 0, chain))...)
	tr.end(ph)

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	rr.gcCycles = gc1.NumGC - gc0.NumGC
	rr.gcPause = time.Duration(gc1.PauseTotalNs - gc0.PauseTotalNs)

	// Operations: every generated packet and every convergence wait.
	rr.attempted += st.traffic.Generated + 1 + uint64(w.strikes)
	rr.failed += st.traffic.Lost()
	if !settle.ok {
		rr.failed++
	}

	if w.probe {
		sp = tr.begin("probe")
		err = runProbe(&rr)
		tr.end(sp)
		if err != nil {
			return rr, err
		}
	}
	tr.end(root)
	return rr, nil
}

// runProbe runs routeProbe without timing its layers and adds its
// operations to rr: two convergence waits and every packet. Its healed
// structure and its traffic accounting are checked like the round's.
func runProbe(rr *roundResult) error {
	w := routeProbe
	opt := w.options(routeProbeSeed)
	s, err := netsim.Build(opt)
	if err != nil {
		return err
	}
	if _, err := s.Configure(); err != nil {
		return err
	}
	s.Net.StartMaintenance(core.VariantD)
	var calls int
	settle := converge(s, w, nil, true, &calls, new(uint64))
	radius := w.strike * opt.Config.SearchRadius()
	for _, c := range w.ring(opt.RegionRadius) {
		s.KillDisk(c, radius)
	}
	heal := converge(s, w, nil, false, &calls, new(uint64))
	cfg := w.trafficConfig(opt.Config.HeartbeatInterval)
	plane, err := s.ServeTraffic(cfg)
	if err != nil {
		return err
	}
	rep := plane.Run()
	rr.sim.probe = rep
	rr.attempted += 2 + rep.Generated
	rr.failed += rep.Lost()
	for _, ok := range []bool{settle.ok, heal.ok} {
		if !ok {
			rr.failed++
		}
	}
	if heal.ok {
		v, _ := checkStructure(heal.snap)
		rr.violations = append(rr.violations, prefix("probe healed: ", v)...)
	}
	rr.violations = append(rr.violations, prefix("probe traffic: ", checkTraffic(rep, cfg.Packets, false, 0))...)
	return nil
}

func subMetrics(a, b core.Metrics) core.Metrics {
	return core.Metrics{
		HeadOrgs:       a.HeadOrgs - b.HeadOrgs,
		HeadsSelected:  a.HeadsSelected - b.HeadsSelected,
		ReplyMessages:  a.ReplyMessages - b.ReplyMessages,
		HeadShifts:     a.HeadShifts - b.HeadShifts,
		CellShifts:     a.CellShifts - b.CellShifts,
		Abandonments:   a.Abandonments - b.Abandonments,
		SanityRetreats: a.SanityRetreats - b.SanityRetreats,
		ParentSeeks:    a.ParentSeeks - b.ParentSeeks,
		Joins:          a.Joins - b.Joins,
		Promotions:     a.Promotions - b.Promotions,
	}
}

func prefix(p string, vs []string) []string {
	for i := range vs {
		vs[i] = p + vs[i]
	}
	return vs
}
