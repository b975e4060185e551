package main

import (
	"strings"
	"testing"
	"time"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/traffic"
)

// tiny is a small lifecycle that runs in well under a second.
var tiny = workload{
	name: "tiny", r: 50, nodes: 5_000, strike: 0.5, strikes: 2,
	streak: 2, budget: 40,
	packets: 2_000, perBeat: 500,
}

// configured returns a freshly configured tiny network with
// maintenance never started, so every perturbation below stays in
// place for the checks to find.
func configured(t *testing.T) *netsim.Sim {
	t.Helper()
	s, err := netsim.Build(tiny.options(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	return s
}

// wantViolation fails unless some violation contains substr.
func wantViolation(t *testing.T, vs []string, substr string) {
	t.Helper()
	for _, v := range vs {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Errorf("no violation mentions %q; got %q", substr, vs)
}

// someHead returns a non-big head with at least one child and one
// associate.
func someHead(t *testing.T, snap core.Snapshot) core.NodeView {
	t.Helper()
	for _, h := range snap.Heads() {
		if !h.IsBig && len(h.Children) > 0 && len(snap.Members(h.ID)) > 0 {
			return h
		}
	}
	t.Fatal("no head with children and associates")
	return core.NodeView{}
}

func TestStructureChecksPassOnConfiguredNetwork(t *testing.T) {
	s := configured(t)
	snap := s.Net.Snapshot()
	if v, longest := checkStructure(snap); len(v) > 0 || longest == 0 {
		t.Fatalf("healthy structure: violations %q, longest chain %d", v, longest)
	}
	if v := checkHeadCount(snap, s.Opt.RegionRadius); len(v) > 0 {
		t.Fatalf("healthy head count: %q", v)
	}
}

func TestStructureChecksFireOnKilledHead(t *testing.T) {
	s := configured(t)
	h := someHead(t, s.Net.Snapshot())
	s.Net.Kill(h.ID)
	v, _ := checkStructure(s.Net.Snapshot())
	wantViolation(t, v, "is not alive")               // its associates
	wantViolation(t, v, "which is not an alive head") // its children's chains
}

func TestStructureChecksFireOnBootupNode(t *testing.T) {
	s := configured(t)
	s.Net.Join(geom.Point{X: 10 * s.Opt.RegionRadius})
	v, _ := checkStructure(s.Net.Snapshot())
	wantViolation(t, v, "left in bootup")
}

func TestStructureChecksFireOnDistantAssociate(t *testing.T) {
	s := configured(t)
	snap := s.Net.Snapshot()
	h := someHead(t, snap)
	a := snap.Members(h.ID)[0]
	s.Net.Move(a, h.Pos.Add(geom.Vec{X: 2 * s.Opt.Config.SearchRadius()}))
	v, _ := checkStructure(s.Net.Snapshot())
	wantViolation(t, v, "beyond")
}

func TestStructureChecksFireOnCorruptedStatus(t *testing.T) {
	s := configured(t)
	snap := s.Net.Snapshot()
	s.Net.Corrupt(snap.Members(someHead(t, snap).ID)[0], core.CorruptStatus, 0)
	v, _ := checkStructure(s.Net.Snapshot())
	wantViolation(t, v, "which is not an alive head")
}

func TestStructureChecksFireOnParentCycle(t *testing.T) {
	snap := configured(t).Net.Snapshot()
	h := someHead(t, snap)
	// Point h's parent at its own child: the two now loop.
	for i := range snap.Nodes {
		if snap.Nodes[i].ID == h.ID {
			snap.Nodes[i].Parent = h.Children[0]
		}
	}
	v, _ := checkStructure(snap)
	wantViolation(t, v, "repeats a head")
}

// TestHeadCountCheckFires loses three of 85 heads to a kill with
// maintenance stopped, then offers the check a settled field as if its
// disk were a tenth smaller.
func TestHeadCountCheckFires(t *testing.T) {
	s := configured(t)
	heads := s.Net.Snapshot().Heads()
	if len(heads) < 50 {
		t.Fatalf("only %d heads", len(heads))
	}
	for _, h := range heads[len(heads)-3:] {
		s.Net.Kill(h.ID)
	}
	wantViolation(t, checkHeadCount(s.Net.Snapshot(), s.Opt.RegionRadius), "heads, expected")

	snap := configured(t).Net.Snapshot()
	wantViolation(t, checkHeadCount(snap, 0.9*s.Opt.RegionRadius), "heads, expected")
}

// TestLatticePoints pins the lattice count against hand-counted rings:
// the anchor alone, then its six neighbours at one pitch, then the
// twelve of the second ring (six at 2 pitches, six at √3 pitches).
func TestLatticePoints(t *testing.T) {
	for _, c := range []struct {
		radius float64
		want   int
	}{{0.5, 1}, {1.01, 7}, {1.8, 13}, {2.01, 19}} {
		if got := latticePoints(geom.Point{}, 1, 0.3, c.radius); got != c.want {
			t.Errorf("radius %v: %d points, want %d", c.radius, got, c.want)
		}
	}
	if got := latticePoints(geom.Point{X: 0.5}, 1, 0, 0.6); got != 2 {
		t.Errorf("shifted anchor: %d points, want 2", got)
	}
}

func TestLocalityCheck(t *testing.T) {
	s := configured(t)
	snap := s.Net.Snapshot()
	before := headStates(snap)
	centre := someHead(t, snap).IL
	radius := tiny.strike * s.Opt.Config.SearchRadius()
	s.KillDisk(centre, radius)
	if v := checkLocality(before, s.Net.Snapshot(), centre, radius); len(v) > 0 {
		t.Fatalf("heads inside the strike disk are exempt: %q", v)
	}
	var far []core.NodeView
	for _, h := range snap.Heads() {
		if !h.IsBig && h.Pos.Dist(centre) > 2*radius {
			far = append(far, h)
		}
	}
	if len(far) < 2 {
		t.Fatal("need two heads outside the strike disk")
	}
	s.Net.Corrupt(far[0].ID, core.CorruptIL, s.Opt.Config.R)
	s.Net.Kill(far[1].ID)
	v := checkLocality(before, s.Net.Snapshot(), centre, radius)
	wantViolation(t, v, "moved its IL")
	wantViolation(t, v, "lost its head role")
}

func TestTrafficCheck(t *testing.T) {
	ok := traffic.Report{Generated: 10, Delivered: 9, LostHopFail: 1, MaxHops: 5}
	if v := checkTraffic(ok, 10, true, 4); len(v) > 0 {
		t.Fatalf("consistent report: %q", v)
	}
	wantViolation(t, checkTraffic(ok, 11, true, 4), "requested 11")
	short := ok
	short.LostHopFail = 0
	wantViolation(t, checkTraffic(short, 10, true, 4), "lost 0")
	wantViolation(t, checkTraffic(ok, 10, true, 3), "took 5 hops")
	if v := checkTraffic(ok, 10, false, 3); len(v) > 0 {
		t.Fatalf("the hop bound applies to convergecast only: %q", v)
	}
}

// TestRoundReplays runs the tiny lifecycle twice with one seed and once
// with another: every check passes, nothing fails, and the simulated
// figures and counts repeat exactly.
func TestRoundReplays(t *testing.T) {
	a, err := runRound(tiny, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRound(tiny, 7, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	c, err := runRound(tiny, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []roundResult{a, b, c} {
		if len(rr.violations) > 0 || rr.failed > 0 || !rr.sim.settled || !rr.sim.healed {
			t.Fatalf("violations %q, %d of %d operations failed", rr.violations, rr.failed, rr.attempted)
		}
		if rr.attempted != uint64(tiny.packets)+1+uint64(tiny.strikes) {
			t.Fatalf("attempted %d", rr.attempted)
		}
	}
	if d := a.sim.diff(b.sim); d != "" {
		t.Fatalf("same seed, traced and untraced rounds differ: %s", d)
	}
	if a.sim.diff(c.sim) == "" {
		t.Fatal("different seeds gave identical rounds")
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("round")
	ph := tr.begin("phase.heal")
	sp := tr.begin("core.sweep")
	time.Sleep(2 * time.Millisecond)
	tr.end(sp)
	tr.end(ph)
	tr.end(root)
	var nilTracer *tracer
	if i := nilTracer.begin("x"); i != -1 {
		t.Fatalf("nil tracer opened span %d", i)
	}
	nilTracer.end(-1)

	if tr.spans[sp].Parent != ph || tr.spans[ph].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	self := tr.selfTimes()
	total := time.Duration(tr.spans[root].End - tr.spans[root].Start)
	if sum := self["round"] + self["phase.heal"] + self["core.sweep"]; sum != total {
		t.Fatalf("self times sum to %v, root span lasts %v", sum, total)
	}
	if self["core.sweep"] < 2*time.Millisecond {
		t.Fatalf("sweep self time %v", self["core.sweep"])
	}
	if got := tr.phaseSum(); got != time.Duration(tr.spans[ph].End-tr.spans[ph].Start) {
		t.Fatalf("phase sum %v", got)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if code := run([]string{"--workload", "nope"}); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if _, ok := workloadByName("crater"); !ok {
		t.Fatal("crater missing")
	}
}

// TestRouteProbeCountsItsOperations runs the probe once: its two waits
// and every packet are operations, and exactly its lost packets (and
// any failed wait) fail.
func TestRouteProbeCountsItsOperations(t *testing.T) {
	var rr roundResult
	if err := runProbe(&rr); err != nil {
		t.Fatal(err)
	}
	p := rr.sim.probe
	if len(rr.violations) > 0 {
		t.Fatalf("violations %q", rr.violations)
	}
	if rr.attempted != uint64(routeProbe.packets)+2 || rr.failed != p.Lost() {
		t.Fatalf("attempted %d, failed %d; probe report %+v", rr.attempted, rr.failed, p)
	}
}
