package mfsa

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// ResumeCtx re-synthesizes g after a local edit by replaying the recorded
// trajectory of a previous run instead of re-deriving every decision.
// prev is the result of synthesizing the pre-edit graph (its Schedule's
// Graph, Frames and Trace must be the ones MFSA produced); oldFrames is
// prev.Schedule.Frames remapped onto g's node IDs (entries for freshly
// added nodes absent or past the end); seeds are the node IDs whose
// timing inputs the edit changed, as for sched.UpdateFrames.
//
// The result is always bit-identical to SynthesizeCtx(g, opt) — replay is
// an optimization, never a semantic shortcut. The induction mirrors
// mfs.ResumeCtx: if the initial per-unit instance bounds match the old
// run's, then as long as each trace step's node is structurally
// equivalent to the new priority order's node, its frames match, and its
// recorded instance-count trajectory (MaxJ, Grown, CurrentJ) still
// holds, the allocator state after the prefix — grid occupancy, ALU
// bindings, mux lists, value lifetimes — is identical to the old run's,
// so the recorded decision IS what bestCandidate would derive and it is
// committed directly. The first divergence switches permanently to the
// full per-node search, which from the common state continues exactly as
// a fresh run would. Whenever a precondition fails (no trace — e.g. the
// previous run had NoTrace set —, changed initial bounds, or a changed
// input set under RegisterInputs), the function falls back to the full
// synthesis, so callers can treat it as a drop-in SynthesizeCtx.
func ResumeCtx(ctx context.Context, g *dfg.Graph, opt Options, prev *Result, oldFrames sched.Frames, seeds []dfg.NodeID) (*Result, error) {
	opt, unitsByOp, err := prepare(g, opt)
	if err != nil {
		return nil, err
	}
	if prev == nil || prev.Schedule == nil || prev.Schedule.Trace == nil ||
		prev.Schedule.Frames == nil || prev.Schedule.Graph == nil {
		return SynthesizeCtx(ctx, g, opt)
	}
	frames, err := sched.UpdateFrames(g, opt.CS, opt.ClockNs, oldFrames, seeds)
	if err != nil {
		return nil, fmt.Errorf("mfsa: %w", err)
	}
	if opt.RegisterInputs && !sameInputs(g, prev.Schedule.Graph) {
		return synthesize(ctx, g, opt, frames, unitsByOp)
	}
	oldMax, oldCur, ok := instanceBounds(prev.Schedule.Graph, opt, unitsByOp)
	if !ok {
		return synthesize(ctx, g, opt, frames, unitsByOp)
	}
	s := newState(g, opt, frames, unitsByOp)
	if !intMapsEqual(s.maxInst, oldMax) || !intMapsEqual(s.current, oldCur) {
		return synthesize(ctx, g, opt, frames, unitsByOp)
	}
	steps := prev.Schedule.Trace.Steps
	replaying := true
	for i, id := range sched.PriorityOrder(g, frames) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if replaying {
			if i < len(steps) && s.replayStep(id, &steps[i], prev) {
				continue
			}
			replaying = false
		}
		if err := s.placeOne(id); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// replayStep commits the recorded decision st for new-graph node id if
// every equivalence precondition holds; it returns false (leaving the
// allocator untouched) on any mismatch. The replayed trace step is
// lightweight — no candidate set — which lint's candidate-minimality
// audit treats as nothing-to-check and which remains sufficient for a
// future resume.
func (s *state) replayStep(id dfg.NodeID, st *sched.TraceStep, prev *Result) bool {
	n := s.g.Node(id)
	pg := prev.Schedule.Graph
	if int(st.Node) >= pg.Len() || !sched.NodesEquivalent(pg.Node(st.Node), n) {
		return false
	}
	if s.frames[id] != prev.Schedule.Frames[st.Node] {
		return false
	}
	u, ok := s.opt.Lib.Lookup(st.Type)
	if !ok || st.MaxJ != s.maxInst[st.Type] {
		return false
	}
	capable := false
	for _, cu := range s.unitsFor(n) {
		if cu.Name == st.Type {
			capable = true
			break
		}
	}
	if !capable {
		return false
	}
	// Reproduce the recorded local-rescheduling growth; on any later
	// mismatch the increments are reverted so the state stays untouched.
	applied := 0
	grownOK := true
	for _, name := range st.Grown {
		if s.current[name] >= s.maxInst[name] {
			grownOK = false
			break
		}
		s.current[name]++
		applied++
	}
	revert := func() {
		for i := applied - 1; i >= 0; i-- {
			s.current[st.Grown[i]]--
		}
	}
	if !grownOK || st.CurrentJ != s.current[st.Type] ||
		st.Pos.Index < 1 || st.Pos.Index > s.current[st.Type] {
		revert()
		return false
	}
	var grown []string
	if len(st.Grown) > 0 {
		grown = append(grown, st.Grown...) // own the old trace's slice
	}
	// commit performs the grid placement itself (atomic on failure) plus
	// the binding and lifetime bookkeeping a fresh run would do.
	if err := s.commit(n, candidate{unit: u, pos: st.Pos, value: st.Energy}, nil, grown); err != nil {
		revert()
		return false
	}
	return true
}

// sameInputs reports whether two graphs declare the same primary inputs
// in the same order (the order seeds RegisterInputs' initial lifetimes).
func sameInputs(a, b *dfg.Graph) bool {
	ia, ib := a.Inputs(), b.Inputs()
	if len(ia) != len(ib) {
		return false
	}
	for i := range ia {
		if ia[i] != ib[i] {
			return false
		}
	}
	return true
}

func intMapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	//hls:orderok set-equality test; the verdict is the same whatever order the keys arrive in
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
