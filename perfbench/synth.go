package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/emit"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
)

// synth-large: a closed loop with one caller. Each operation is a fresh
// core.SynthesizeCtx under the default Config (trace recorded, as users
// get it) followed by Design.Netlist, on seeded 5k–15k-node layered
// random DAGs with 2-cycle multipliers plus a FIR and a matmul kernel.
// The sizes are fixed strata and the seed draws each graph's structure,
// so every seed offers the same mix of sizes. The graphs are drawn once
// per run: fresh ones for every cycle would keep two sets alive at once
// and make the peak memory swing from run to run.

var synthSizes = []int{5000, 7500, 10000, 12500, 15000}

const (
	synthFIRTaps   = 2560 // 5119 nodes
	synthMatMulN   = 13   // 4225 nodes
	synthSlack     = 16   // control steps above the critical path
	synthCheckMax  = 7500 // designs up to this size are simulated in the check
	synthSimSeeds  = 2
	synthWarmupIdx = 0               // the smallest random graph
	synthCycle     = 5 * time.Second // nominal time of one pass over the designs
)

type design struct {
	name string
	g    *dfg.Graph
	cfg  core.Config
}

// designOut is what the reference pass keeps of one synthesized design.
type designOut struct {
	ok       bool
	sched    *sched.Schedule
	dp       *rtl.Datapath
	cost     rtl.Cost
	netlistB int
	cands    int
	growths  int
	alus     int
	regs     int
}

func outOf(s *sched.Schedule, dp *rtl.Datapath, cost rtl.Cost, netlist string) designOut {
	o := designOut{ok: true, sched: s, dp: dp, cost: cost, netlistB: len(netlist), alus: len(dp.ALUs), regs: len(dp.Registers)}
	if s.Trace != nil {
		for _, st := range s.Trace.Steps {
			o.cands += len(st.Candidates)
			o.growths += len(st.Grown)
		}
	}
	return o
}

// addTo sums a design's counts into an exact-count map.
func (o designOut) addTo(ex map[string]float64) {
	ex["area_um2"] += o.cost.Total
	ex["mfsa.candidates_scored"] += float64(o.cands)
	ex["mfsa.growths"] += float64(o.growths)
	ex["rtl.alus"] += float64(o.alus)
	ex["rtl.registers"] += float64(o.regs)
	ex["rtl.mux_inputs"] += float64(o.cost.NumMuxInputs)
	ex["emit.netlist_kb"] += float64(o.netlistB) / 1024
}

type synthLarge struct {
	designs []design
	rng     *rand.Rand
	ref     []designOut // reference pass, indexed like designs
	refDone bool
}

func newSynthLarge(ctx context.Context, seed int64) (workload, error) {
	w := &synthLarge{rng: rand.New(rand.NewSource(seed))}
	for i, n := range synthSizes {
		g, err := gen.Generate(gen.Config{Nodes: n, MulCycles: 2, Seed: seed*1009 + int64(i)})
		if err != nil {
			return nil, err
		}
		g.Name = fmt.Sprintf("rand%d", n)
		w.designs = append(w.designs, newDesign(g))
	}
	fir, err := gen.FIR(synthFIRTaps, 2)
	if err != nil {
		return nil, err
	}
	mm, err := gen.MatMul(synthMatMulN, 2)
	if err != nil {
		return nil, err
	}
	w.designs = append(w.designs, newDesign(fir), newDesign(mm))
	w.ref = make([]designOut, len(w.designs))
	// Warm-up pass: one design through the untraced operation.
	if _, _, err := w.one(ctx, synthWarmupIdx, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func newDesign(g *dfg.Graph) design {
	return design{name: g.Name, g: g, cfg: core.Config{CS: g.CriticalPathCycles() + synthSlack}}
}

// mfsaOptions mirrors core's Config-to-Options mapping for the fields
// the benchmark sets.
func mfsaOptions(cfg core.Config) mfsa.Options {
	return mfsa.Options{
		CS: cfg.CS, Limits: cfg.Limits, ClockNs: cfg.ClockNs, Latency: cfg.Latency,
		Style: mfsa.Style(cfg.Style), UsePipelinedUnits: len(cfg.PipelinedOps) > 0,
		RegisterInputs: cfg.RegisterInputs, NoTrace: cfg.NoTrace,
	}
}

func (w *synthLarge) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	return closedLoop(len(w.designs), cycles(d, synthCycle), w.rng, nil, func(i int) (sample, int, error) {
		// Each design starts from a collected heap, so garbage one large
		// design left behind is not charged to the next.
		runtime.GC()
		out, cost, err := w.one(ctx, i, tr)
		if err != nil {
			return sample{}, 0, fmt.Errorf("%s: %w", w.designs[i].name, err)
		}
		if !w.refDone {
			out.sched.Trace = nil // the checks need placements, not the trajectory
			if w.designs[i].g.Len() > synthCheckMax {
				out.sched, out.dp = nil, nil // not simulated in the check
			}
			w.ref[i] = out
		}
		return cost, w.designs[i].g.Len(), nil
	}, func() { w.refDone = true })
}

// one synthesizes design i and renders its netlist. Untraced, it is the
// user's call sequence; traced, the same work split at the layer
// boundaries, followed by aside re-runs that time single layers.
func (w *synthLarge) one(ctx context.Context, i int, tr *tracer) (designOut, sample, error) {
	ds := w.designs[i]
	sw := startWatch()
	if tr == nil {
		d, err := core.SynthesizeCtx(ctx, ds.g, ds.cfg)
		if err != nil {
			return designOut{}, sample{}, err
		}
		nl, err := d.Netlist()
		if err != nil {
			return designOut{}, sample{}, err
		}
		return outOf(d.Schedule, d.Datapath, d.Cost, nl), sw.stop(), nil
	}
	res, _, nl, synthMs, err := tracedSynth(ctx, tr, -1, "bench.design", ds, true)
	if err != nil {
		return designOut{}, sample{}, err
	}
	cost := sw.stop()
	if err := tracedAside(ctx, tr, ds, synthMs); err != nil {
		return designOut{}, sample{}, err
	}
	return outOf(res.Schedule, res.Datapath, res.Cost, nl), cost, nil
}

// tracedSynth runs mfsa.SynthesizeCtx, ctrl.Build and, when netlist is
// set, emit.Verilog, each in its own span under a root span.
func tracedSynth(ctx context.Context, tr *tracer, parent int, rootName string, ds design, netlist bool) (*mfsa.Result, *ctrl.Controller, string, float64, error) {
	root := tr.begin(parent, rootName, ds.name)
	defer tr.end(root)
	var res *mfsa.Result
	var err error
	t0 := time.Now()
	tr.do(root, "mfsa.SynthesizeCtx", ds.name, func() {
		a0 := heapAllocBytes()
		res, err = mfsa.SynthesizeCtx(ctx, ds.g, mfsaOptions(ds.cfg))
		tr.observe("mfsa.alloc_mb", float64(heapAllocBytes()-a0)/1e6)
	})
	synthMs := ms(time.Since(t0))
	if err != nil {
		return nil, nil, "", 0, err
	}
	var c *ctrl.Controller
	tr.do(root, "ctrl.Build", ds.name, func() { c, err = ctrl.Build(ds.g, res.Schedule, res.Datapath) })
	if err != nil {
		return nil, nil, "", 0, err
	}
	var nl string
	if netlist {
		tr.do(root, "emit.Verilog", ds.name, func() { nl = emit.Verilog(ds.g, res.Schedule, res.Datapath, c) })
	}
	return res, c, nl, synthMs, nil
}

// tracedAside times single layers on calls made only for that: frame
// computation, a NoTrace synthesis (the trace's cost is the difference)
// and, on the NoTrace datapath, the mux-list re-optimization.
func tracedAside(ctx context.Context, tr *tracer, ds design, synthMs float64) error {
	aside := tr.begin(-1, asideRoot, ds.name)
	defer tr.end(aside)
	var err error
	tr.do(aside, "sched.frames", ds.name, func() {
		var fr sched.Frames
		if fr, err = sched.ComputeFrames(ds.g, ds.cfg.CS, ds.cfg.ClockNs); err == nil {
			sched.PriorityOrder(ds.g, fr)
		}
	})
	if err != nil {
		return err
	}
	opts := mfsaOptions(ds.cfg)
	opts.NoTrace = true
	var res *mfsa.Result
	t0 := time.Now()
	tr.do(aside, "mfsa.SynthesizeCtx:notrace", ds.name, func() { res, err = mfsa.SynthesizeCtx(ctx, ds.g, opts) })
	if err != nil {
		return err
	}
	tr.observe("mfsa.trace_ms", synthMs-ms(time.Since(t0)))
	tr.do(aside, "rtl.ReoptimizeMuxes", ds.name, func() { res.Datapath.ReoptimizeMuxes(ds.g) })
	return nil
}

// cycles converts a nominal run length into a whole number of loop
// cycles. The work of a run is fixed by the run length and the
// workload's nominal cycle time on the reference machine (2 cores), not
// by how fast the program turns out to be, so two versions of the
// program measure the same operations and their tails are read at the
// same rank. d == 0 gives the reference pass alone.
func cycles(d, nominal time.Duration) int {
	return max(1, int(math.Round(float64(d)/float64(nominal))))
}

// closedLoop runs op over a fresh seeded permutation of n inputs per
// cycle, for the given number of cycles; start(c), when not nil, sets
// up cycle c's inputs, untimed. The first cycle is the reference pass;
// firstDone runs after it.
func closedLoop(n, cycles int, rng *rand.Rand, start func(c int) error, op func(i int) (cost sample, nodes int, err error), firstDone func()) (*phase, error) {
	p := &phase{}
	for c := 0; c < cycles; c++ {
		if start != nil {
			if err := start(c); err != nil {
				return nil, err
			}
		}
		for _, i := range rng.Perm(n) {
			cost, nodes, err := op(i)
			p.Ops++
			if err != nil {
				p.Failed++
				p.Notes = append(p.Notes, "FAIL "+err.Error())
				continue
			}
			p.done(cost, nodes)
		}
		if c == 0 {
			firstDone()
		}
	}
	p.closeLoop()
	return p, nil
}

func (w *synthLarge) exact() map[string]float64 {
	ex := make(map[string]float64)
	for _, o := range w.ref {
		if o.ok {
			o.addTo(ex)
		}
	}
	return ex
}

// check simulates the smaller reference designs against the DFG
// reference on a few seeds.
func (w *synthLarge) check(ctx context.Context) (attempted, failed int, notes []string) {
	for i, o := range w.ref {
		ds := w.designs[i]
		if ds.g.Len() > synthCheckMax {
			continue
		}
		attempted++
		if !o.ok {
			failed++
			notes = append(notes, "FAIL "+ds.name+": no reference design")
			continue
		}
		if err := sim.CrossCheckSeedsCtx(ctx, o.sched, o.dp, synthSimSeeds, nil); err != nil {
			failed++
			notes = append(notes, fmt.Sprintf("FAIL %s: simulation differs from the DFG reference: %v", ds.name, err))
		}
	}
	notes = append(notes, fmt.Sprintf("check: %d designs simulated against the DFG reference on %d seeds, %d failed", attempted, synthSimSeeds, failed))
	return attempted, failed, notes
}
