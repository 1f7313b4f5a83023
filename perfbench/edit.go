package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// edit-session: a closed loop with one caller applying a seeded stream
// of core.Edits to a ~10k-node single-cycle design under pinned per-unit
// limits — the set-up under which trajectory replay carries through.
// Each edit is core.ResynthesizeCtx on the previous result; no netlist
// is emitted. Edits come in blocks: four AddOp/RemoveSink pairs that
// replay, and at a seeded slot one Retime pair (to two cycles and back)
// that forces the full fallback. The seed draws the edit stream; the
// design itself is fixed, because the size of its trajectory sets both
// the replay cost and the process's peak memory, which a seeded graph
// made swing from seed to seed.

const (
	editNodes      = 10000
	editGraphSeed  = 77 // gen seed of the design under edit
	editSlack      = 16
	editPairs      = 5                       // pairs per block, one of them a Retime pair
	editFreshEvery = 5                       // traced run: fresh-synthesis timing on every fifth edit
	editChecks     = 3                       // edits of the reference block compared with a fresh synthesis
	editBlock      = 1250 * time.Millisecond // nominal time of one block of edits
)

type editSession struct {
	cfg     core.Config
	cur     *core.Design
	rng     *rand.Rand
	kinds   []op.Kind // AddOp kinds off the instance-floor boundary
	inputs  []string
	retime  []string // single-cycle ops with slack, Retime targets
	serial  int
	refDone bool
	ref     []editOut            // the reference block, in edit order
	checkAt []int                // reference-block edits compared with a fresh synthesis
	kept    map[int]*core.Design // their results
}

// editOut is what the reference block keeps of one edit.
type editOut struct {
	edit   core.Edit
	cost   rtl.Cost
	alus   int
	regs   int
	prefix float64 // common trace prefix share with the previous design
}

func newEditSession(ctx context.Context, seed int64) (workload, error) {
	g, err := gen.Generate(gen.Config{Nodes: editNodes, Seed: editGraphSeed})
	if err != nil {
		return nil, err
	}
	g.Name = "edit10k"
	cs := g.CriticalPathCycles() + editSlack
	probe, err := core.SynthesizeCtx(ctx, g, core.Config{CS: cs})
	if err != nil {
		return nil, err
	}
	used := make(map[string]int)
	for _, a := range probe.Datapath.ALUs {
		used[a.Unit.Name]++
	}
	limits := make(map[string]int)
	for _, u := range library.NCRLike().Units() {
		limits[u.Name] = 0
		if n := used[u.Name]; n > 0 {
			limits[u.Name] = n + 2
		}
	}
	w := &editSession{
		cfg: core.Config{CS: cs, Limits: limits}, rng: rand.New(rand.NewSource(seed)),
		inputs: g.Inputs(), kept: make(map[int]*core.Design),
	}
	if w.cur, err = core.SynthesizeCtx(ctx, g, w.cfg); err != nil {
		return nil, err
	}
	counts := make(map[op.Kind]int)
	for _, n := range g.Nodes() {
		counts[n.Op]++
	}
	for _, k := range []op.Kind{op.Add, op.Sub, op.And, op.Or, op.Xor} {
		if counts[k]%cs != 0 {
			w.kinds = append(w.kinds, k)
		}
	}
	if len(w.kinds) == 0 {
		return nil, fmt.Errorf("no op kind off the instance-floor boundary")
	}
	w.retime = retimeTargets(g, w.cur.Schedule)
	if len(w.retime) == 0 {
		return nil, fmt.Errorf("no op with slack to retime")
	}
	for i := 0; i < editChecks; i++ {
		w.checkAt = append(w.checkAt, w.rng.Intn(2*editPairs))
	}
	// Warm-up pass: one AddOp/RemoveSink pair on a throwaway session.
	warm := *w
	warm.rng = rand.New(rand.NewSource(^seed))
	for _, e := range warm.pair(false) {
		if warm.cur, err = core.ResynthesizeCtx(ctx, warm.cur, e); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// retimeTargets lists single-cycle ops whose frame leaves room for a
// second cycle, in graph order.
func retimeTargets(g *dfg.Graph, s *sched.Schedule) []string {
	var out []string
	for _, n := range g.Nodes() {
		if n.Cycles != 1 || n.IsLoop() {
			continue
		}
		if f := s.Frames; f != nil && int(n.ID) < len(f) && f[n.ID].ALAP > f[n.ID].ASAP {
			out = append(out, n.Name)
		}
	}
	return out
}

// pair returns the next two edits: an AddOp fed from two primary inputs
// and the RemoveSink that undoes it, or a Retime to two cycles and back.
func (w *editSession) pair(retime bool) []core.Edit {
	if retime {
		node := w.retime[w.rng.Intn(len(w.retime))]
		return []core.Edit{
			{Retime: &core.RetimeEdit{Node: node, Cycles: 2}},
			{Retime: &core.RetimeEdit{Node: node, Cycles: 1}},
		}
	}
	w.serial++
	name := fmt.Sprintf("bench_e%d", w.serial)
	a, b := w.inputs[w.rng.Intn(len(w.inputs))], w.inputs[w.rng.Intn(len(w.inputs))]
	return []core.Edit{
		{AddOp: &core.AddOpEdit{Name: name, Op: w.kinds[w.rng.Intn(len(w.kinds))], Args: []string{a, b}}},
		{RemoveSink: name},
	}
}

func (w *editSession) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	for blk := cycles(d, editBlock); blk > 0; blk-- {
		retimeAt := w.rng.Intn(editPairs)
		for k := 0; k < editPairs; k++ {
			for _, e := range w.pair(k == retimeAt) {
				cost, err := w.one(ctx, e, tr, p.Ops)
				p.Ops++
				if err != nil {
					p.Failed++
					p.Notes = append(p.Notes, "FAIL edit: "+err.Error())
					continue
				}
				p.done(cost, w.cur.Graph.Len())
			}
		}
		w.refDone = true
	}
	p.closeLoop()
	return p, nil
}

// one applies edit e to the current design.
func (w *editSession) one(ctx context.Context, e core.Edit, tr *tracer, seq int) (sample, error) {
	prev := w.cur
	unit := fmt.Sprintf("edit%d", seq)
	root := tr.begin(-1, "bench.edit", unit)
	sw := startWatch()
	var next *core.Design
	var err error
	tr.do(root, "core.ResynthesizeCtx", unit, func() { next, err = core.ResynthesizeCtx(ctx, prev, e) })
	cost := sw.stop()
	tr.end(root)
	if err != nil {
		return sample{}, err
	}
	w.cur = next
	if !w.refDone {
		for _, i := range w.checkAt {
			if i == len(w.ref) {
				w.kept[i] = withoutTrace(next)
			}
		}
		w.ref = append(w.ref, editOut{
			edit: e, cost: next.Cost, alus: len(next.Datapath.ALUs), regs: len(next.Datapath.Registers),
			prefix: prefixShare(prev.Schedule.Trace, next.Schedule.Trace),
		})
	}
	if tr != nil && seq%editFreshEvery == 0 {
		if err := w.aside(ctx, tr, next, unit); err != nil {
			return sample{}, err
		}
	}
	return cost, nil
}

// aside times, on the edited graph, what the edit saved and what it
// still paid: a fresh synthesis, the mux re-optimization on that fresh
// datapath, and the controller build.
func (w *editSession) aside(ctx context.Context, tr *tracer, d *core.Design, unit string) error {
	aside := tr.begin(-1, asideRoot, unit)
	defer tr.end(aside)
	var fresh *core.Design
	var err error
	tr.do(aside, "core.SynthesizeCtx", unit, func() { fresh, err = core.SynthesizeCtx(ctx, d.Graph, w.cfg) })
	if err != nil {
		return err
	}
	tr.do(aside, "rtl.ReoptimizeMuxes", unit, func() { fresh.Datapath.ReoptimizeMuxes(d.Graph) })
	tr.do(aside, "ctrl.Build", unit, func() { _, err = ctrl.Build(d.Graph, d.Schedule, d.Datapath) })
	return err
}

// withoutTrace is a shallow copy of d that drops the trajectory, the
// bulk of a design's memory, which the check does not need. d itself
// keeps it: the next edit replays from it.
func withoutTrace(d *core.Design) *core.Design {
	s := *d.Schedule
	s.Trace = nil
	out := *d
	out.Schedule = &s
	return &out
}

// prefixShare is the common prefix of two trajectories, compared step by
// step with TraceStep.Equal, as a share of the new trajectory's steps.
func prefixShare(old, cur *sched.Trace) float64 {
	if cur == nil || len(cur.Steps) == 0 {
		return 0
	}
	n := 0
	if old != nil {
		for n < len(old.Steps) && n < len(cur.Steps) && old.Steps[n].Equal(&cur.Steps[n]) {
			n++
		}
	}
	return float64(n) / float64(len(cur.Steps))
}

func (w *editSession) exact() map[string]float64 {
	ex := make(map[string]float64)
	for _, o := range w.ref {
		ex["area_um2"] += o.cost.Total
		ex["rtl.alus"] += float64(o.alus)
		ex["rtl.registers"] += float64(o.regs)
		ex["rtl.mux_inputs"] += float64(o.cost.NumMuxInputs)
		ex["core.edit_prefix_share"] += o.prefix / float64(len(w.ref))
	}
	return ex
}

// check compares sampled edits of the reference block with a fresh
// synthesis of the edited graph: placements, cost and netlist bytes.
func (w *editSession) check(ctx context.Context) (attempted, failed int, notes []string) {
	for _, i := range w.checkAt {
		attempted++
		d, ok := w.kept[i]
		if !ok {
			failed++
			notes = append(notes, fmt.Sprintf("FAIL edit %d: no result kept", i))
			continue
		}
		if err := sameAsFresh(ctx, d, w.cfg); err != nil {
			failed++
			notes = append(notes, fmt.Sprintf("FAIL edit %d (%s): %v", i, describeEdit(w.ref[i].edit), err))
		}
	}
	notes = append(notes, fmt.Sprintf("check: %d edits compared with a fresh synthesis, %d differ", attempted, failed))
	return attempted, failed, notes
}

func sameAsFresh(ctx context.Context, inc *core.Design, cfg core.Config) error {
	fresh, err := core.SynthesizeCtx(ctx, inc.Graph, cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(inc.Schedule.Placements, fresh.Schedule.Placements) {
		return fmt.Errorf("placements differ")
	}
	if inc.Cost != fresh.Cost {
		return fmt.Errorf("cost %v, fresh %v", inc.Cost.Total, fresh.Cost.Total)
	}
	a, err := inc.Netlist()
	if err != nil {
		return err
	}
	b, err := fresh.Netlist()
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("netlist bytes differ")
	}
	return nil
}

func describeEdit(e core.Edit) string {
	switch {
	case e.AddOp != nil:
		return "AddOp " + e.AddOp.Name
	case e.RemoveSink != "":
		return "RemoveSink " + e.RemoveSink
	case e.Retime != nil:
		return fmt.Sprintf("Retime %s to %d", e.Retime.Node, e.Retime.Cycles)
	}
	return "AddInput " + e.AddInput
}
