package mfsa

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/op"
	"repro/internal/rtl"
)

// indexCase is one (graph, options) configuration of the index on/off
// cross-check.
type indexCase struct {
	name string
	g    *dfg.Graph
	opt  Options
}

func indexCases(t *testing.T) []indexCase {
	t.Helper()
	var cases []indexCase
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		base := Options{CS: cs, ClockNs: ex.ClockNs}
		cases = append(cases,
			indexCase{fmt.Sprintf("%s/T=%d", ex.Name, cs), ex.Graph, base},
			indexCase{fmt.Sprintf("%s/T=%d/style2", ex.Name, cs), ex.Graph,
				Options{CS: cs, ClockNs: ex.ClockNs, Style: Style2}},
			indexCase{fmt.Sprintf("%s/T=%d/pipelined-units", ex.Name, cs), ex.Graph,
				Options{CS: cs, ClockNs: ex.ClockNs, UsePipelinedUnits: true}},
		)
		// Chaining toggled, as in mfs's equivalence suite.
		alt := base
		if ex.ClockNs > 0 {
			alt.ClockNs = 0
			if cp := ex.Graph.CriticalPathCycles(); cp > alt.CS {
				alt.CS = cp
			}
		} else {
			alt.ClockNs = 100
		}
		cases = append(cases,
			indexCase{fmt.Sprintf("%s/T=%d/chain-toggled", ex.Name, alt.CS), ex.Graph, alt})
		if ex.Latency != nil {
			lat := base
			lat.Latency = ex.Latency(cs)
			cases = append(cases,
				indexCase{fmt.Sprintf("%s/T=%d/latency", ex.Name, cs), ex.Graph, lat})
		}
	}
	// Exclusion variant: conditional sharing is the one configuration
	// where the index walk must fall back to the per-occupant CanPlace
	// check on occupied bits.
	g := dfg.New("mx-idx")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "a", "a")
	g.AddOp("ux", op.Add, "x", "a")
	g.AddOp("uy", op.Sub, "y", "a")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	cases = append(cases, indexCase{"mx/T=2/exclusion", g, Options{CS: 2}})
	return cases
}

// TestIndexedSynthesisMatchesDisabledIndex is the tentpole's cross-check
// at the MFSA layer: with grid.DisableIndex set, the full synthesis —
// schedule, recorded trace, bound netlist, and cost — must be
// bit-identical to the indexed run on every benchmark × style ×
// chaining/pipelining/latency/exclusion variant.
func TestIndexedSynthesisMatchesDisabledIndex(t *testing.T) {
	for _, tc := range indexCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := SynthesizeCtx(context.Background(), tc.g, tc.opt)
			if err != nil {
				t.Fatalf("indexed: %v", err)
			}
			grid.DisableIndex = true
			defer func() { grid.DisableIndex = false }()
			slow, err := SynthesizeCtx(context.Background(), tc.g, tc.opt)
			grid.DisableIndex = false
			if err != nil {
				t.Fatalf("index disabled: %v", err)
			}
			if !reflect.DeepEqual(fast.Schedule.Placements, slow.Schedule.Placements) {
				t.Errorf("placements diverge with the index disabled")
			}
			if !fast.Schedule.Trace.Equal(slow.Schedule.Trace) {
				t.Errorf("traces diverge with the index disabled")
			}
			compareDatapaths(t, fast.Datapath, slow.Datapath)
			if fast.Cost != slow.Cost {
				t.Errorf("cost diverges: %+v vs %+v", fast.Cost, slow.Cost)
			}
		})
	}
}

// compareDatapaths asserts netlist bit-identity: same ALUs in the same
// order with identical units, bindings and mux input lists, and the same
// register packing.
func compareDatapaths(t *testing.T, a, b *rtl.Datapath) {
	t.Helper()
	if len(a.ALUs) != len(b.ALUs) {
		t.Fatalf("ALU count diverges: %d vs %d", len(a.ALUs), len(b.ALUs))
	}
	for i := range a.ALUs {
		x, y := a.ALUs[i], b.ALUs[i]
		if x.Name != y.Name || x.Unit.Name != y.Unit.Name {
			t.Fatalf("ALU %d diverges: %s(%s) vs %s(%s)", i, x.Name, x.Unit.Name, y.Name, y.Unit.Name)
		}
		if !reflect.DeepEqual(x.Ops, y.Ops) {
			t.Fatalf("ALU %s bindings diverge", x.Name)
		}
		if !reflect.DeepEqual(x.L1, y.L1) || !reflect.DeepEqual(x.L2, y.L2) {
			t.Fatalf("ALU %s mux input lists diverge", x.Name)
		}
	}
	if !reflect.DeepEqual(a.Registers, b.Registers) {
		t.Fatalf("register packing diverges")
	}
}
