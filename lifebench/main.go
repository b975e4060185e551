// Command lifebench is the repository's end-to-end benchmark. It runs
// one GS³ lifecycle per round — build, configure, settle to the
// dynamic fixpoint, strike a disk, heal back to the fixpoint, then
// serve packet traffic — and repeats the round with the same seed
// until the measuring window closes. Host-time figures are medians
// over rounds; simulated figures must repeat exactly in every round.
//
// Usage (from the repository root, normally through run.sh):
//
//	lifebench --workload lossy --seed 1 --seconds 56 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of traced rounds, and the spans are written to
// .bench_build/spans-<workload>-<seed>.json. Every round checks the
// program's outputs against properties the benchmark computes itself
// (checks.go); a failed check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: crater, dataplane or lossy")
	seed := fs.Uint64("seed", 1, "workload seed (deployment jitter, protocol and traffic draws)")
	seconds := fs.Float64("seconds", 30, "measuring window in host seconds; at least one whole round always runs")
	traceOn := fs.Int("trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lifebench: unknown workload %q\n", *name)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintf(os.Stderr, "lifebench: --trace must be 0 or 1\n")
		return 2
	}
	// Every executor in the lifecycle is serial; the second processor
	// only serves the garbage collector. Fixing the count keeps runs on
	// hosts of different sizes comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	window := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traceOn == 1 {
		res, err = measureTraced(w, *seed, window, fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, *seed))
	} else {
		res, err = measure(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lifebench: %s: %v\n", w.name, err)
		return 1
	}
	for _, m := range res.order {
		fmt.Printf("%-32s %16.6g %s\n", m, res.metrics[m].Value, res.metrics[m].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lifebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark invocation reports.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]metric
	order     []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// minRounds is the least number of rounds a run makes, so that every
// median rests on more than one sample and a traced run holds a traced
// and an untraced round.
const minRounds = 2

// rounds runs whole lifecycle rounds while the next one, taking as long
// as the last, still ends inside the window; at least minRounds run.
// Each round is checked, and every round's simulated figures and
// counts must equal the first round's — the determinism contract of a
// fixed seed.
func rounds(w workload, seed uint64, window time.Duration, traced func(i int) bool) ([]roundResult, error) {
	start := time.Now()
	var out []roundResult
	var last time.Duration
	for len(out) < minRounds || time.Since(start)+last <= window {
		var tr *tracer
		if traced(len(out)) {
			tr = newTracer()
		}
		t0 := time.Now()
		rr, err := runRound(w, seed, tr)
		if err != nil {
			return nil, err
		}
		rr.wall = time.Since(t0)
		last = rr.wall
		rr.trace = tr
		if len(out) > 0 {
			if diff := out[0].sim.diff(rr.sim); diff != "" {
				return nil, fmt.Errorf("round %d is not a replay of round 0: %s", len(out), diff)
			}
		}
		t := rr.sim.traffic
		fmt.Fprintf(os.Stderr, "round %d: %v (setup %.3fs, heal %.3fs, traffic %.3fs); killed %d, heal rounds %v msgs %v; packets %d delivered, %d no route, %d hop fail, %d ttl, %d expired\n",
			len(out), rr.wall.Round(time.Millisecond), rr.setup.Seconds(), rr.heal.Seconds(), rr.trafficRun.Seconds(),
			rr.sim.killed, rr.sim.healRounds, rr.sim.healMsgs, t.Delivered, t.LostNoRoute, t.LostHopFail, t.LostTTL, t.Expired)
		if w.probe {
			p := rr.sim.probe
			fmt.Fprintf(os.Stderr, "round %d: route probe: %d of %d packets delivered in at most %v hops, %d no route, %d hop fail, %d ttl, %d expired\n",
				len(out), p.Delivered, p.Generated, p.MaxHops, p.LostNoRoute, p.LostHopFail, p.LostTTL, p.Expired)
		}
		out = append(out, rr)
	}
	return out, nil
}

// tally fills the operation counts and the correctness verdict shared
// by both reporting modes.
func tally(rs []roundResult) result {
	res := result{correct: true}
	for _, rr := range rs {
		res.attempted += rr.attempted
		res.failed += rr.failed
		if len(rr.violations) > 0 {
			res.correct = false
			for i, v := range rr.violations {
				if i == 20 {
					fmt.Fprintf(os.Stderr, "check failed: %d more\n", len(rr.violations)-i)
					break
				}
				fmt.Fprintf(os.Stderr, "check failed: %s\n", v)
			}
		}
	}
	return res
}

// measure runs untraced rounds and reports the end-to-end metrics.
func measure(w workload, seed uint64, window time.Duration) (result, error) {
	rs, err := rounds(w, seed, window, func(int) bool { return false })
	if err != nil {
		return result{}, err
	}
	res := tally(rs)
	s := rs[0].sim
	res.set("setup_s", medianOf(rs, func(r roundResult) float64 { return r.setup.Seconds() }), "s")
	res.set("heap_bytes_per_node", medianOf(rs, func(r roundResult) float64 { return r.heapPerNode }), "B")
	res.set("heal_rounds", mean(s.healRounds), "rounds")
	res.set("configure_vs", s.configureVS, "vs")
	res.set("latency_p50_vs", s.traffic.LatencyP50, "vs")
	res.set("latency_p99_vs", s.traffic.LatencyP99, "vs")
	return res, nil
}

// measureTraced alternates untraced and traced rounds (at least one of
// each), reports the per-layer metrics of the traced rounds, the host
// times of the heal and traffic phases and the tracing overhead from
// the untraced ones, and writes every traced round's spans to path.
// The two phase times are not end-to-end metrics: on a shared host
// their run-to-run spread exceeds any bound a regression gate can use
// (README.md, Host noise).
func measureTraced(w workload, seed uint64, window time.Duration, path string) (result, error) {
	rs, err := rounds(w, seed, window, func(i int) bool { return i%2 == 1 })
	if err != nil {
		return result{}, err
	}
	res := tally(rs)
	var plain, traced []roundResult
	for _, rr := range rs {
		if rr.trace != nil {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	layerMetrics(&res, rs[0].sim, traced)
	res.set("heal_s", medianOf(plain, func(r roundResult) float64 { return r.heal.Seconds() }), "s")
	res.set("traffic_pkts_per_s", medianOf(plain, func(r roundResult) float64 {
		return float64(r.sim.traffic.Delivered) / r.trafficRun.Seconds()
	}), "1/s")
	wall := func(r roundResult) float64 { return r.wall.Seconds() }
	res.set("trace.overhead", medianOf(traced, wall)/medianOf(plain, wall)-1, "ratio")
	res.set("trace.rounds", float64(len(traced)), "count")
	if err := writeSpans(path, w.name, seed, traced); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return res, nil
}

// medianOf returns the median of f over the rounds.
func medianOf(rs []roundResult, f func(roundResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
