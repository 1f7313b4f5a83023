package mfs

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// LoopDesign is the result of scheduling a hierarchical design with
// folded loops (§5.2): the outer schedule plus one nested LoopDesign per
// loop node, keyed by the loop node's ID in the enclosing graph.
type LoopDesign struct {
	Schedule *sched.Schedule
	Inner    map[dfg.NodeID]*LoopDesign
}

// ScheduleLoopsCtx implements the paper's nested-loop procedure: the
// innermost loop bodies are scheduled first, each under its own local
// time constraint (the loop node's Cycles, set by the user per §5.2);
// the enclosing graph then treats each loop as a single multicycle
// operation with that execution time. The same Options apply at every
// level except the time constraint, which is per-loop, and pipelining
// options, which apply only to the outermost level. ctx is observed by
// every nested body schedule and by the outer schedule, so a cancelled
// hierarchical run returns ctx.Err() promptly at any depth.
func ScheduleLoopsCtx(ctx context.Context, g *dfg.Graph, opt Options) (*LoopDesign, error) {
	design := &LoopDesign{Inner: make(map[dfg.NodeID]*LoopDesign)}
	for _, n := range g.Nodes() {
		if !n.IsLoop() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bodyOpt := opt
		bodyOpt.CS = n.Cycles
		bodyOpt.Latency = 0
		bodyOpt.PipelinedTypes = nil
		inner, err := ScheduleLoopsCtx(ctx, n.Sub, bodyOpt)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("mfs: loop %q: %w", n.Name, err)
		}
		design.Inner[n.ID] = inner
	}
	outer, err := ScheduleCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	design.Schedule = outer
	return design, nil
}
