package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	hls "repro"
	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/opt"
	"repro/internal/sim"
)

// verify-mid: a closed loop with one caller running the verified flow.
// A clean unit is core.SynthesizeCtx with Config.Lint (all seven
// analyzers, equiv included) and then Design.SelfCheck(8); its verdict
// is "accept". A mutated unit carries one of lint.Mutations() in its
// synthesized artifacts and lint.Certify must refute it. The units are
// seeded 1k–2k-node gen graphs, the six paper benchmarks, and
// designs/*.hls through SynthesizeSource with Optimize. Every verdict
// has a known answer. Each cycle of the loop draws fresh gen graphs
// beside the same paper benchmarks, sources and mutated units.

// verifyGraphs gen graphs per cycle, evenly spaced from verifyMin to
// verifyMax nodes. They outnumber the small units, so the median verdict
// is a gen graph's, not a few-millisecond paper benchmark's.
const (
	verifyGraphs = 16
	verifyMin    = 1000
	verifyMax    = 2000
)

const (
	verifySlack    = 8
	verifySrcSlack = 2
	verifyMutated  = 4 // mutated units per cycle
	verifySimSeeds = 8
	verifyCycle    = 6 * time.Second // nominal time of one pass over the units
)

type vunit struct {
	name     string
	g        *dfg.Graph // nil for a source unit
	src      string
	cfg      core.Config
	nodes    int
	mutation string // "" for a clean unit
}

type verifyMid struct {
	seed  int64
	base  []vunit // cycle 0: the reference pass's units
	units []vunit // the current cycle's units, indexed like base
	rng   *rand.Rand
	area  []float64          // reference pass: each clean unit's cost
	lint  map[string]float64 // reference counts from the check
}

func newVerifyMid(ctx context.Context, seed int64) (workload, error) {
	w := &verifyMid{seed: seed, rng: rand.New(rand.NewSource(seed))}
	graphs, err := genUnits(seed, 0)
	if err != nil {
		return nil, err
	}
	for _, ex := range benchmarks.All() {
		graphs = append(graphs, vunit{name: ex.Name, g: ex.Graph, nodes: ex.Graph.Len(),
			cfg: core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs}})
	}
	w.units = append(w.units, graphs...)
	srcs, err := filepath.Glob(filepath.Join("designs", "*.hls"))
	if err != nil || len(srcs) == 0 {
		return nil, fmt.Errorf("no designs/*.hls under the working directory (run from the repository root)")
	}
	for _, path := range srcs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		g, _, err := frontend(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		w.units = append(w.units, vunit{name: filepath.Base(path), src: string(data), nodes: g.Len(),
			cfg: core.Config{CS: g.CriticalPathCycles() + verifySrcSlack, Optimize: true}})
	}
	// Mutations ride on the paper benchmarks: refuting one in a 1.5k–2k
	// node design takes seconds (see README.md), which would leave too
	// few verdicts per run.
	muts := lint.Mutations()
	carriers := graphs[verifyGraphs:]
	for len(w.units) < len(graphs)+len(srcs)+verifyMutated {
		u := carriers[w.rng.Intn(len(carriers))]
		u.mutation = muts[w.rng.Intn(len(muts))].Name
		u.name += "+" + u.mutation
		d, err := core.SynthesizeCtx(ctx, u.g, u.cfg)
		if err != nil {
			return nil, err
		}
		if lint.ApplyMutation(d.LintUnit(), u.mutation) != nil {
			continue // the design lacks this mutation's seam; draw again
		}
		w.units = append(w.units, u)
	}
	w.base = w.units
	// Warm-up pass: the smallest gen graph through the verified flow.
	if _, _, err := w.one(ctx, w.units[0], nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// genUnits draws the gen graphs of one cycle, evenly spaced in size.
func genUnits(seed int64, cycle int) ([]vunit, error) {
	var out []vunit
	for i := 0; i < verifyGraphs; i++ {
		n := verifyMin + i*(verifyMax-verifyMin)/(verifyGraphs-1)
		g, err := gen.Generate(gen.Config{Nodes: n, MulCycles: 2, Seed: seed*1009 + 31 + int64(i) + int64(cycle)*100_003})
		if err != nil {
			return nil, err
		}
		g.Name = fmt.Sprintf("rand%d", n)
		out = append(out, vunit{name: g.Name, g: g, nodes: n, cfg: core.Config{CS: g.CriticalPathCycles() + verifySlack}})
	}
	return out, nil
}

// startCycle sets the units of cycle c: the reference units for the
// first, fresh gen graphs beside the same other units after it.
func (w *verifyMid) startCycle(c int) error {
	if c == 0 {
		w.units = w.base
		return nil
	}
	fresh, err := genUnits(w.seed, c)
	if err != nil {
		return err
	}
	w.units = append(fresh, w.base[verifyGraphs:]...)
	return nil
}

// frontend is what SynthesizeSource runs before synthesis with Optimize.
func frontend(src string) (*dfg.Graph, map[string]int64, error) {
	g, consts, outs, err := behav.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := opt.Pipeline(g, consts, outs)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Consts, nil
}

func (w *verifyMid) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	first := w.area == nil
	if first {
		w.area = make([]float64, len(w.units))
	}
	p, err := closedLoop(len(w.base), cycles(d, verifyCycle), w.rng, w.startCycle, func(i int) (sample, int, error) {
		u := w.units[i]
		cost, area, err := w.one(ctx, u, tr)
		if err != nil {
			return sample{}, 0, fmt.Errorf("%s: %w", u.name, err)
		}
		if first {
			w.area[i] = area
		}
		return cost, u.nodes, nil
	}, func() { first = false })
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := w.serveAside(ctx, tr, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serveAside measures the hlsd layers on this workload's graphs: each
// clean graph unit goes to an in-process serve.New twice, a miss and
// then a hit, with the key path (decode, fingerprint, canonical hash)
// timed again on its body, and the paper benchmarks go through
// hls.SweepGraphsCtx in pairs. Each request is also checked: a hit body
// must equal its miss body and the served cost the unit's cost from the
// reference pass. The requests count as operations of the phase.
func (w *verifyMid) serveAside(ctx context.Context, tr *tracer, p *phase) error {
	h, err := startHlsd()
	if err != nil {
		return err
	}
	defer h.close()
	fail := func(name string, err error) {
		p.Failed++
		p.Notes = append(p.Notes, fmt.Sprintf("FAIL hlsd %s: %v", name, err))
	}
	m0 := h.srv.Metrics()
	var reqs []sreq
	var hit, miss []float64
	for i, u := range w.base {
		if u.g == nil || u.mutation != "" {
			continue
		}
		r, err := synthReq(i, u.g, u.cfg)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
		for k := 0; k < 2; k++ {
			p.Ops++
			t0 := time.Now()
			wasHit, cost, err := h.send(r)
			lat := ms(time.Since(t0))
			switch {
			case err != nil:
				fail(u.name, err)
			case cost != w.area[i]:
				fail(u.name, fmt.Errorf("served cost %v, direct synthesis %v", cost, w.area[i]))
			case wasHit:
				hit = append(hit, lat)
			default:
				miss = append(miss, lat)
			}
		}
	}
	m1 := h.srv.Metrics()
	hd, md := summarize(hit), summarize(miss)
	p.Layer = map[string]float64{
		"serve.hit_ms_p50": hd.P50, "serve.hit_ms_tail": hd.Tail,
		"serve.miss_ms_p50": md.P50, "serve.miss_ms_tail": md.Tail,
		"serve.hit_rate":  float64(len(hit)) / math.Max(1, float64(len(hit)+len(miss))),
		"serve.evictions": float64(m1.Cache.Evictions - m0.Cache.Evictions),
	}
	aside := tr.begin(-1, asideRoot, "hlsd")
	defer tr.end(aside)
	keyPath(tr, aside, reqs)
	var pair []*dfg.Graph
	for _, u := range w.base[verifyGraphs:] {
		if u.g == nil || u.mutation != "" || u.cfg.ClockNs != 0 {
			continue
		}
		if pair = append(pair, u.g); len(pair) == 2 {
			p.Ops++
			tr.do(aside, "hls.SweepGraphsCtx", u.name, func() {
				_, err = hls.SweepGraphsCtx(ctx, pair, hls.Config{Parallelism: 1}, 1, 2*u.cfg.CS)
			})
			if err != nil {
				fail("sweep "+u.name, err)
			}
			pair = nil
		}
	}
	return nil
}

// one reaches unit u's verdict and returns an error when the verdict is
// not the known answer or the flow fails. It returns the time to the
// verdict and a clean unit's area.
func (w *verifyMid) one(ctx context.Context, u vunit, tr *tracer) (sample, float64, error) {
	if tr != nil {
		return w.tracedOne(ctx, u, tr)
	}
	sw := startWatch()
	if u.mutation != "" {
		d, err := core.SynthesizeCtx(ctx, u.g, u.cfg)
		if err != nil {
			return sample{}, 0, err
		}
		err = refute(ctx, d.LintUnit(), u.mutation, nil, -1)
		return sw.stop(), 0, err
	}
	cfg := u.cfg
	cfg.Lint = true
	var d *core.Design
	var err error
	if u.g != nil {
		d, err = core.SynthesizeCtx(ctx, u.g, cfg)
	} else {
		d, err = core.SynthesizeSourceCtx(ctx, u.src, cfg)
	}
	if err != nil {
		return sample{}, 0, fmt.Errorf("clean unit rejected: %w", err)
	}
	if err := d.SelfCheck(verifySimSeeds); err != nil {
		return sample{}, 0, fmt.Errorf("clean unit rejected: %w", err)
	}
	return sw.stop(), d.Cost.Total, nil
}

// refute applies the mutation and requires lint.Certify to refute it.
func refute(ctx context.Context, lu *lint.Unit, mutation string, tr *tracer, parent int) error {
	if err := lint.ApplyMutation(lu, mutation); err != nil {
		return err
	}
	var cert *lint.Certificate
	var err error
	tr.do(parent, "lint.Certify", lu.Graph.Name, func() { cert, err = lint.Certify(ctx, lu) })
	if err != nil {
		return err
	}
	if cert.Status != "refuted" {
		return fmt.Errorf("mutation %s not refuted: certificate %s", mutation, cert.Status)
	}
	return nil
}

// tracedOne is the same verdict split at the layer boundaries, plus one
// aside lint.RunCtx per analyzer.
func (w *verifyMid) tracedOne(ctx context.Context, u vunit, tr *tracer) (sample, float64, error) {
	sw := startWatch()
	root := tr.begin(-1, "bench.verdict", u.name)
	g, consts := u.g, map[string]int64(nil)
	var err error
	if g == nil {
		var outs []string
		tr.do(root, "behav.Compile", u.name, func() { g, consts, outs, err = behav.Compile(u.src) })
		if err != nil {
			tr.end(root)
			return sample{}, 0, err
		}
		var res *opt.Result
		tr.do(root, "opt.Pipeline", u.name, func() { res, err = opt.Pipeline(g, consts, outs) })
		if err != nil {
			tr.end(root)
			return sample{}, 0, err
		}
		g, consts = res.Graph, res.Consts
	}
	ds := design{name: u.name, g: g, cfg: u.cfg}
	res, c, nl, _, err := tracedSynth(ctx, tr, root, "bench.synthesize", ds, true)
	if err != nil {
		tr.end(root)
		return sample{}, 0, err
	}
	lu := &lint.Unit{Graph: g, Schedule: res.Schedule, Datapath: res.Datapath, Controller: c, Netlist: nl}
	if u.mutation != "" {
		err = refute(ctx, lu, u.mutation, tr, root)
		tr.end(root)
		return sw.stop(), 0, err
	}
	var ds2 diag.List
	tr.do(root, "lint.RunCtx", u.name, func() { ds2, err = lint.RunCtx(ctx, lu, lint.Options{}) })
	if err == nil && ds2.Count(diag.Error) > 0 {
		err = fmt.Errorf("clean unit rejected: %w", ds2.ErrOrNil())
	}
	if err == nil {
		tr.do(root, "sim.CrossCheckSeedsCtx", u.name, func() {
			err = sim.CrossCheckSeedsCtx(ctx, res.Schedule, res.Datapath, verifySimSeeds, consts)
		})
	}
	tr.end(root)
	cost := sw.stop()
	if err != nil {
		return sample{}, 0, err
	}
	aside := tr.begin(-1, asideRoot, u.name)
	defer tr.end(aside)
	for _, a := range lint.Analyzers() {
		tr.do(aside, "lint.RunCtx:"+a.Name, u.name, func() {
			_, err = lint.RunCtx(ctx, lu, lint.Options{Analyzers: []string{a.Name}})
		})
		if err != nil {
			return sample{}, 0, err
		}
	}
	return cost, res.Cost.Total, nil
}

func (w *verifyMid) exact() map[string]float64 {
	ex := make(map[string]float64, len(w.lint)+1)
	for k, v := range w.lint {
		ex[k] = v
	}
	for _, a := range w.area {
		ex["area_um2"] += a
	}
	return ex
}

// check certifies every clean unit once more, untimed: it must be
// certified with no error diagnostics; every mutated unit must be
// refuted. It also reads the exact counts of outputs proved and
// diagnostics.
func (w *verifyMid) check(ctx context.Context) (attempted, failed int, notes []string) {
	w.lint = map[string]float64{"lint.outputs_proved": 0, "lint.diagnostics": 0}
	for _, u := range w.base {
		attempted++
		if err := w.checkUnit(ctx, u); err != nil {
			failed++
			notes = append(notes, fmt.Sprintf("FAIL %s: %v", u.name, err))
		}
	}
	notes = append(notes, fmt.Sprintf("check: %d verdicts re-derived against their known answers, %d wrong", attempted, failed))
	return attempted, failed, notes
}

func (w *verifyMid) checkUnit(ctx context.Context, u vunit) error {
	var d *core.Design
	var err error
	if u.g != nil {
		d, err = core.SynthesizeCtx(ctx, u.g, u.cfg)
	} else {
		d, err = core.SynthesizeSourceCtx(ctx, u.src, u.cfg)
	}
	if err != nil {
		return err
	}
	lu := d.LintUnit()
	if u.mutation != "" {
		if err := lint.ApplyMutation(lu, u.mutation); err != nil {
			return err
		}
	} else {
		ds, err := lint.RunCtx(ctx, lu, lint.Options{})
		if err != nil {
			return err
		}
		w.lint["lint.diagnostics"] += float64(len(ds))
		if n := ds.Count(diag.Error); n > 0 {
			return fmt.Errorf("clean unit has %d error diagnostic(s): %w", n, ds.ErrOrNil())
		}
	}
	cert, err := lint.Certify(ctx, lu)
	if err != nil {
		return err
	}
	w.lint["lint.diagnostics"] += float64(len(cert.Diagnostics))
	want := "certified"
	if u.mutation != "" {
		want = "refuted"
	}
	if cert.Status != want {
		return fmt.Errorf("certificate %s, want %s", cert.Status, want)
	}
	for _, o := range cert.Outputs {
		if o.Datapath == "equal" && o.Netlist != "diverges" {
			w.lint["lint.outputs_proved"]++
		}
	}
	return nil
}
