package core

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/sched"
)

// Edit describes one local change to a synthesized design's graph.
// Exactly one field must be set. The supported edits are the ones an
// interactive design loop makes between synthesis runs: adding a primary
// input, appending an operation, deleting a sink, and changing an
// operation's cycle count.
type Edit struct {
	// AddInput adds a primary input with the given name.
	AddInput string

	// AddOp appends a new operation; see AddOpEdit.
	AddOp *AddOpEdit

	// RemoveSink deletes the named node, which must have no consumers
	// (a sink). Its producers stay; ones left without consumers become
	// outputs.
	RemoveSink string

	// Retime changes an operation's cycle count; see RetimeEdit.
	Retime *RetimeEdit
}

// AddOpEdit appends one operation to the graph. Args must name existing
// inputs or nodes. Cycles < 1 defaults to 1; DelayNs <= 0 leaves the
// chaining delay at the op kind's default.
type AddOpEdit struct {
	Name    string
	Op      op.Kind
	Args    []string
	Cycles  int
	DelayNs float64
}

// RetimeEdit sets the named operation's Cycles — the multicycle
// annotation of §5.3 — without touching the graph structure.
type RetimeEdit struct {
	Node   string
	Cycles int
}

// apply derives the post-edit graph plus the UpdateFrames seed set: the
// new-graph IDs of every node whose timing inputs the edit changed. The
// input graph is never mutated.
func (e Edit) apply(g *dfg.Graph) (*dfg.Graph, []dfg.NodeID, error) {
	set := 0
	if e.AddInput != "" {
		set++
	}
	if e.AddOp != nil {
		set++
	}
	if e.RemoveSink != "" {
		set++
	}
	if e.Retime != nil {
		set++
	}
	if set != 1 {
		return nil, nil, fmt.Errorf("core: edit must set exactly one of AddInput, AddOp, RemoveSink, Retime (got %d)", set)
	}
	switch {
	case e.AddInput != "":
		c := g.Clone()
		if err := c.AddInput(e.AddInput); err != nil {
			return nil, nil, err
		}
		// A fresh input carries no frame; nothing existing moves, but an
		// empty seed set makes UpdateFrames recompute from scratch, which
		// is exactly right for the cheap O(V+E) frame pass.
		return c, nil, nil
	case e.AddOp != nil:
		c := g.Clone()
		id, err := c.AddOp(e.AddOp.Name, e.AddOp.Op, e.AddOp.Args...)
		if err != nil {
			return nil, nil, err
		}
		if e.AddOp.Cycles >= 1 {
			if err := c.SetCycles(id, e.AddOp.Cycles); err != nil {
				return nil, nil, err
			}
		}
		if e.AddOp.DelayNs > 0 {
			if err := c.SetDelayNs(id, e.AddOp.DelayNs); err != nil {
				return nil, nil, err
			}
		}
		return c, []dfg.NodeID{id}, nil
	case e.RemoveSink != "":
		return removeSink(g, e.RemoveSink)
	default:
		c := g.Clone()
		n, ok := c.Lookup(e.Retime.Node)
		if !ok {
			return nil, nil, fmt.Errorf("core: retime: no node %q in %s", e.Retime.Node, g.Name)
		}
		if err := c.SetCycles(n.ID, e.Retime.Cycles); err != nil {
			return nil, nil, err
		}
		return c, []dfg.NodeID{n.ID}, nil
	}
}

// removeSink rebuilds g without the named sink. Node IDs are dense and
// append-only, so deletion means reconstruction; everything else — names,
// args, cycle counts, delays, conditional tags, folded loops — carries
// over verbatim, and IDs past the sink shift down by one.
func removeSink(g *dfg.Graph, name string) (*dfg.Graph, []dfg.NodeID, error) {
	target, ok := g.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("core: remove: no node %q in %s", name, g.Name)
	}
	if len(target.Succs()) > 0 {
		return nil, nil, fmt.Errorf("core: remove: node %q has %d consumer(s); only sinks can be removed",
			name, len(target.Succs()))
	}
	c := dfg.New(g.Name)
	for _, in := range g.Inputs() {
		if err := c.AddInput(in); err != nil {
			return nil, nil, err
		}
	}
	for _, n := range g.Nodes() {
		if n.ID == target.ID {
			continue
		}
		var id dfg.NodeID
		var err error
		if n.IsLoop() {
			binds := make(map[string]string, len(n.SubIns))
			for i, in := range n.SubIns {
				binds[in] = n.Args[i]
			}
			id, err = c.AddLoop(n.Name, n.Sub.Clone(), n.SubOut, binds)
		} else {
			id, err = c.AddOp(n.Name, n.Op, n.Args...)
		}
		if err != nil {
			return nil, nil, err
		}
		if n.Cycles != 1 {
			if err := c.SetCycles(id, n.Cycles); err != nil {
				return nil, nil, err
			}
		}
		if n.DelayNs != 0 {
			if err := c.SetDelayNs(id, n.DelayNs); err != nil {
				return nil, nil, err
			}
		}
		if len(n.Excl) > 0 {
			if err := c.Tag(id, n.Excl...); err != nil {
				return nil, nil, err
			}
		}
	}
	// Losing a consumer relaxes the producers' latest start times, so
	// each former predecessor seeds the frame update.
	seeds := make([]dfg.NodeID, 0, len(target.Preds()))
	for _, pid := range target.Preds() {
		if p, ok := c.Lookup(g.Node(pid).Name); ok {
			seeds = append(seeds, p.ID)
		}
	}
	return c, seeds, nil
}

// remapFrames carries the pre-edit frames onto the post-edit graph's node
// IDs by name, the shape mfs.ResumeCtx and mfsa.ResumeCtx expect. Nodes
// the old graph never had keep the zero frame; every such node is in the
// seed set, so UpdateFrames re-derives it before anyone reads it.
func remapFrames(newG, oldG *dfg.Graph, old sched.Frames) sched.Frames {
	if old == nil {
		return nil
	}
	byName := make(map[string]sched.Frame, len(old))
	for _, n := range oldG.Nodes() {
		if int(n.ID) < len(old) {
			byName[n.Name] = old[n.ID]
		}
	}
	out := make(sched.Frames, newG.Len())
	for _, n := range newG.Nodes() {
		out[n.ID] = byName[n.Name]
	}
	return out
}

// ResynthesizeCtx re-derives a design after a local graph edit, reusing
// the previous run's recorded trajectory for the untouched prefix. The
// result is always bit-identical to synthesizing the edited graph from
// scratch under the design's original Config — replay is an optimization,
// never a semantic shortcut (see mfs.ResumeCtx and mfsa.ResumeCtx for the
// induction) — but on a large design whose edit only perturbs a small
// cone, it skips nearly all of the placement search.
//
// The design must come from SynthesizeCtx/ScheduleOnlyCtx (or a previous
// ResynthesizeCtx): those capture the Config the replay re-runs under,
// including its Timeout and input-size guards. Designs assembled by
// other means (AllocateCtx) are rejected. A design synthesized with
// Config.NoTrace has no trajectory to replay; the call still succeeds by
// falling back to a full run.
//
//hls:sharedok Edit.apply mutates only its own Clone of d.Graph (loop bodies are re-cloned before reuse); d is read-only here
func ResynthesizeCtx(ctx context.Context, d *Design, e Edit) (*Design, error) {
	if d == nil || d.Graph == nil || d.Schedule == nil {
		return nil, fmt.Errorf("core: resynthesize needs a completed design (run Synthesize or ScheduleOnly first)")
	}
	if !d.hasCfg {
		return nil, fmt.Errorf("core: resynthesize needs a design produced by Synthesize, ScheduleOnly or Resynthesize; this one carries no synthesis configuration")
	}
	cfg := d.cfg
	newG, seeds, err := e.apply(d.Graph)
	if err != nil {
		return nil, err
	}
	if err := guardInput(newG, cfg); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	oldFrames := remapFrames(newG, d.Graph, d.Schedule.Frames)
	var out *Design
	if d.Datapath != nil {
		prev := &mfsa.Result{Schedule: d.Schedule, Datapath: d.Datapath, Cost: d.Cost}
		res, err := mfsa.ResumeCtx(ctx, newG, mfsaOptions(cfg), prev, oldFrames, seeds)
		if err != nil {
			return nil, err
		}
		if out, err = assemble(newG, res); err != nil {
			return nil, err
		}
	} else {
		s, err := mfs.ResumeCtx(ctx, newG, mfsOptions(cfg), d.Schedule, oldFrames, seeds)
		if err != nil {
			return nil, err
		}
		out = &Design{Graph: newG, Schedule: s}
	}
	out.Consts = d.Consts
	out.captureLintContext(cfg)
	if err := out.lintGate(ctx, cfg); err != nil {
		return nil, err
	}
	return out, nil
}
