package sim

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// PipelineRun is the result of simulating a functionally pipelined
// schedule over several loop initiations.
type PipelineRun struct {
	// Iterations holds each initiation's full signal valuation.
	Iterations []map[string]int64

	// TotalSteps is the makespan: with initiation interval L and k
	// iterations of a cs-step body, (k−1)·L + cs.
	TotalSteps int

	// Throughput is the steady-state initiation interval (the schedule's
	// Latency).
	Throughput int
}

// RunPipelinedCtx simulates k consecutive initiations of a functionally
// pipelined schedule (§5.5.2), one input vector per initiation. Each
// initiation executes the full body; the folded schedule guarantees the
// overlapped initiations never contend for a functional unit, which the
// expansion check in internal/mfs proves structurally — here the value
// semantics of every iteration are verified against the behavioral
// reference, and the pipelined makespan is reported. ctx is observed by
// every iteration's simulation.
func RunPipelinedCtx(ctx context.Context, s *sched.Schedule, inputs []map[string]int64) (*PipelineRun, error) {
	if s.Latency <= 0 {
		return nil, fmt.Errorf("sim: RunPipelined needs a functionally pipelined schedule")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no iterations")
	}
	run := &PipelineRun{
		Throughput: s.Latency,
		TotalSteps: (len(inputs)-1)*s.Latency + s.CS,
	}
	for k, in := range inputs {
		vals, err := RunCtx(ctx, s, in)
		if err != nil {
			return nil, fmt.Errorf("sim: iteration %d: %w", k, err)
		}
		want, err := s.Graph.Eval(in)
		if err != nil {
			return nil, fmt.Errorf("sim: iteration %d reference: %w", k, err)
		}
		//hls:ctxok O(nodes) value comparison; the enclosing iteration loop is cancelled through RunCtx
		for _, n := range s.Graph.Nodes() {
			if vals[n.Name] != want[n.Name] {
				return nil, fmt.Errorf("sim: iteration %d: %q = %d, reference %d",
					k, n.Name, vals[n.Name], want[n.Name])
			}
		}
		run.Iterations = append(run.Iterations, vals)
	}
	return run, nil
}
