// Package sim executes synthesized designs cycle by cycle and cross-checks
// them against the data-flow graph's reference evaluation. It is the
// repository's end-to-end verification substrate: Run drives a schedule
// (checking that every operand is ready when read — multicycle completion
// times and chaining included), RunRTLCtx additionally walks the bound
// datapath (checking that every cross-step operand is actually held in an
// allocated register for the whole time it is needed), and CrossCheckCtx
// compares the results with dfg.Graph.Eval on the same inputs.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// Run simulates a schedule: control steps advance from 1 to CS, every
// operation starting in a step reads its operands and produces its value
// at the end of its finish step. It returns every signal's value.
func Run(s *sched.Schedule, inputs map[string]int64) (map[string]int64, error) {
	return run(context.Background(), s, nil, inputs)
}

// RunCtx is Run with cancellation: ctx is checked before every operation,
// so a cancelled simulation returns ctx.Err() within one operation's
// worth of work.
func RunCtx(ctx context.Context, s *sched.Schedule, inputs map[string]int64) (map[string]int64, error) {
	return run(ctx, s, nil, inputs)
}

// RunRTLCtx simulates a schedule against its bound datapath, additionally
// verifying register coverage: any operand read after its producing step
// must sit in an allocated register whose lifetime covers the read.
func RunRTLCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) (map[string]int64, error) {
	if dp == nil {
		return nil, fmt.Errorf("sim: nil datapath")
	}
	return run(ctx, s, dp, inputs)
}

func run(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) (map[string]int64, error) {
	g := s.Graph
	// Step budget: a degenerate schedule (say an operation declared to
	// take a billion cycles) must fail fast with a typed error, not hang
	// the simulator. The budget counts node-cycles, so it scales with
	// design size but rejects absurd single operations.
	budget := 0
	for _, n := range g.Nodes() {
		c := n.Cycles
		if c < 1 {
			c = 1
		}
		if budget += c; budget > guard.DefaultSimBudget {
			return nil, fmt.Errorf("sim: %w",
				&guard.LimitError{What: "simulation node-cycles", Got: budget, Max: guard.DefaultSimBudget})
		}
	}
	vals := make(map[string]int64, g.Len()+len(inputs))
	for _, in := range g.Inputs() {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("sim: missing input %q", in)
		}
		vals[in] = v
	}
	readyAt := make(map[string]int) // signal -> finish step of producer
	isInput := make(map[string]bool)
	for _, in := range g.Inputs() {
		readyAt[in] = 0
		isInput[in] = true
	}
	finish := func(n *dfg.Node) int {
		return s.Placements[n.ID].Step + n.Cycles - 1
	}

	// Issue order: by start step, then topologically within a step (for
	// chained operations), then by ID.
	order := append([]dfg.NodeID(nil), g.TopoOrder()...)
	sort.SliceStable(order, func(i, j int) bool {
		si := s.Placements[order[i]].Step
		sj := s.Placements[order[j]].Step
		return si < sj
	})

	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := g.Node(id)
		p, ok := s.Placements[id]
		if !ok {
			return nil, fmt.Errorf("sim: node %q unscheduled", n.Name)
		}
		for _, a := range n.Args {
			r, ok := readyAt[a]
			if !ok {
				return nil, fmt.Errorf("sim: node %q reads %q which never becomes ready", n.Name, a)
			}
			switch {
			case r < p.Step:
				// Ready before the step: the value crossed a boundary;
				// with a datapath, node-produced values must be
				// registered for the whole span (primary inputs are
				// stable ports unless the design registered them too).
				if dp != nil && !isInput[a] {
					if _, ok := dp.Covering(a, r, p.Step); !ok {
						return nil, fmt.Errorf("sim: node %q reads %q at step %d but no register holds it over [%d,%d]",
							n.Name, a, p.Step, r, p.Step)
					}
				}
			case r == p.Step && s.ClockNs > 0 && n.Cycles == 1:
				// Chained within the step; combinational, no register.
			default:
				return nil, fmt.Errorf("sim: node %q at step %d reads %q which is ready only at step %d",
					n.Name, p.Step, a, r)
			}
		}
		var out int64
		if n.IsLoop() {
			sub := make(map[string]int64, len(n.SubIns))
			for i, in := range n.SubIns {
				sub[in] = vals[n.Args[i]]
			}
			inner, err := n.Sub.Eval(sub)
			if err != nil {
				return nil, fmt.Errorf("sim: loop %q: %w", n.Name, err)
			}
			out = inner[n.SubOut]
		} else {
			var x, y int64
			x = vals[n.Args[0]]
			if len(n.Args) > 1 {
				y = vals[n.Args[1]]
			}
			out = n.Op.Eval(x, y)
		}
		vals[n.Name] = out
		readyAt[n.Name] = finish(n)
	}
	return vals, nil
}

// CrossCheckCtx simulates the schedule (and datapath, if non-nil) on one
// input vector and compares every node's value against the reference
// evaluator. It returns the first mismatch; CrossCheckSeedsCtx drives it
// over N reproducible vectors.
func CrossCheckCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) error {
	want, err := s.Graph.Eval(inputs)
	if err != nil {
		return fmt.Errorf("sim: reference: %w", err)
	}
	var got map[string]int64
	if dp != nil {
		got, err = RunRTLCtx(ctx, s, dp, inputs)
	} else {
		got, err = RunCtx(ctx, s, inputs)
	}
	if err != nil {
		return err
	}
	//hls:ctxok O(nodes) value comparison after the cancellable simulation already returned
	for _, n := range s.Graph.Nodes() {
		if got[n.Name] != want[n.Name] {
			return fmt.Errorf("sim: %q = %d, reference says %d", n.Name, got[n.Name], want[n.Name])
		}
	}
	return nil
}

// DefaultCrossCheckSeeds is how many reproducible random vectors
// CrossCheckSeedsCtx drives when the caller passes n <= 0.
const DefaultCrossCheckSeeds = 8

// CrossCheckSeedsCtx cross-checks the schedule (and datapath, if
// non-nil) on n reproducible random input vectors (seeds 1..n; n <= 0
// selects DefaultCrossCheckSeeds). overrides, when non-nil, pins
// selected inputs to fixed values on every vector — the core layer uses
// it to hold literal constants at their declared values. The error
// names the failing seed so a report reproduces with RandomInputs.
func CrossCheckSeedsCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, n int, overrides map[string]int64) error {
	if n <= 0 {
		n = DefaultCrossCheckSeeds
	}
	for seed := 1; seed <= n; seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := RandomInputs(s.Graph, int64(seed))
		for k, v := range overrides {
			in[k] = v
		}
		if err := CrossCheckCtx(ctx, s, dp, in); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// RandomInputs generates reproducible input values for a graph.
func RandomInputs(g *dfg.Graph, seed int64) map[string]int64 {
	r := rand.New(rand.NewSource(seed))
	in := make(map[string]int64)
	for _, name := range g.Inputs() {
		in[name] = int64(r.Intn(201) - 100)
	}
	return in
}
