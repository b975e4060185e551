package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, or one lifecycle phase, made by
// the benchmark's own code.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`   // index of the enclosing span, -1 for the round
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one round in memory. A nil *tracer records
// nothing and reads no clock, so untraced rounds make the same layer
// calls at no cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // the innermost open span, -1 when none
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1}
}

// begin opens a span inside the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Start: int64(time.Since(t.t0))})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.spans[i].Parent
}

// selfTimes returns, per span name, the summed time of those spans not
// covered by their child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// phaseSum returns the summed duration of the round's top-level phases,
// the children of the root span.
func (t *tracer) phaseSum() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Parent == 0 {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// layerSpans maps each per-layer time metric to the span it sums. All
// are leaves, so their self time is their whole duration.
var layerSpans = []struct{ metric, span string }{
	{"netsim.build_s", "netsim.build"},
	{"core.configure_s", "core.configure"},
	{"core.sweep_s", "core.sweep"},
	{"core.snapshot_s", "core.snapshot"},
	{"check.fixpoint_s", "check.fixpoint"},
	{"netsim.killdisk_s", "netsim.killdisk"},
	{"traffic.run_s", "traffic.run"},
}

// layerMetrics reports the per-layer figures: span self times and
// host-side rates as medians over the traced rounds, and the counts of
// s, which every round repeats exactly.
func layerMetrics(res *result, s simStats, traced []roundResult) {
	self := make([]map[string]time.Duration, len(traced))
	for i, rr := range traced {
		self[i] = rr.trace.selfTimes()
	}
	selfOf := func(name string) float64 {
		v := make([]float64, len(self))
		for i, m := range self {
			v[i] = m[name].Seconds()
		}
		return median(v)
	}
	for _, l := range layerSpans {
		res.set(l.metric, selfOf(l.span), "s")
	}
	// The benchmark's own work: its output checks, counter reads and
	// the forced collection of the heap measurement.
	res.set("bench.self_s", medianOf(traced, func(rr roundResult) float64 {
		var sum time.Duration
		for name, d := range rr.trace.selfTimes() {
			if name == "round" || strings.HasPrefix(name, "phase.") {
				sum += d
			}
		}
		return sum.Seconds()
	}), "s")
	res.set("trace.phase_sum_ratio", medianOf(traced, func(rr roundResult) float64 {
		return rr.trace.phaseSum().Seconds() / rr.wall.Seconds()
	}), "ratio")
	res.set("check.calls", float64(s.checkCalls[phSettle]+s.checkCalls[phHeal]), "count")

	for ph, name := range phaseNames {
		res.set("sim.events."+name, float64(s.events[ph]), "count")
	}
	res.set("sim.ns_per_event.traffic", medianOf(traced, func(rr roundResult) float64 {
		return float64(rr.trafficRun.Nanoseconds()) / float64(s.events[phTraffic])
	}), "ns")
	for ph, name := range phaseNames {
		st := s.radio[ph]
		res.set("radio.broadcasts."+name, float64(st.Broadcasts), "count")
		res.set("radio.unicasts."+name, float64(st.Unicasts), "count")
		res.set("radio.deliveries."+name, float64(st.Deliveries), "count")
		res.set("radio.range_queries."+name, float64(st.RangeQueries), "count")
	}
	res.set("radio.fault_drops", float64(s.faults.FaultDrops), "count")
	res.set("radio.fault_dups", float64(s.faults.FaultDups), "count")

	res.set("radio.heal_msgs", mean(s.healMsgs), "msgs")
	res.set("core.head_orgs", float64(s.healCore.HeadOrgs), "count")
	res.set("core.parent_seeks", float64(s.healCore.ParentSeeks), "count")
	res.set("core.head_shifts", float64(s.healCore.HeadShifts), "count")
	res.set("core.cell_shifts", float64(s.healCore.CellShifts), "count")

	res.set("traffic.forwards", float64(s.traffic.Forwards), "count")
	res.set("traffic.retries", float64(s.traffic.Retries), "count")
	res.set("traffic.detours", float64(s.traffic.Detours), "count")
	res.set("traffic.mean_hops", s.traffic.MeanHops, "hops")
	res.set("traffic.allocs_per_pkt", medianOf(traced, func(rr roundResult) float64 { return rr.allocsPerPkt }), "count")
	res.set("traffic.alloc_bytes_per_pkt", medianOf(traced, func(rr roundResult) float64 { return rr.allocBytesPerPkt }), "B")

	res.set("gc.cycles", medianOf(traced, func(rr roundResult) float64 { return float64(rr.gcCycles) }), "count")
	res.set("gc.pause_s", medianOf(traced, func(rr roundResult) float64 { return rr.gcPause.Seconds() }), "s")
}

// writeSpans writes every traced round's spans, with the round's wall
// time measured outside the tracer, as one JSON document.
func writeSpans(path, workload string, seed uint64, traced []roundResult) error {
	type round struct {
		WallNs int64  `json:"wall_ns"`
		Spans  []span `json:"spans"`
	}
	doc := struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Rounds   []round `json:"rounds"`
	}{Workload: workload, Seed: seed}
	for _, rr := range traced {
		doc.Rounds = append(doc.Rounds, round{rr.wall.Nanoseconds(), rr.trace.spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
