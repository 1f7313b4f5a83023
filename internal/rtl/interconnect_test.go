package rtl_test

// Interconnect tests live in an external test package because they need
// mfsa-synthesized designs, and mfsa imports rtl.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/mfsa"
	"repro/internal/rtl"
)

func synthFor(t *testing.T, mk func() *benchmarks.Example, cs int) (*benchmarks.Example, *mfsa.Result) {
	t.Helper()
	ex := mk()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: cs, ClockNs: ex.ClockNs})
	if err != nil {
		t.Fatal(err)
	}
	return ex, res
}

func TestAnalyzeInterconnect(t *testing.T) {
	ex, res := synthFor(t, benchmarks.Diffeq, 6)
	ic, err := rtl.AnalyzeInterconnect(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	if ic.NumLinks <= 0 {
		t.Fatal("no links found")
	}
	// Sharing can only reduce (or keep) the mux input count.
	if ic.EffectiveInputs > ic.SignalInputs {
		t.Errorf("effective inputs %d > signal inputs %d", ic.EffectiveInputs, ic.SignalInputs)
	}
	// Every ALU appears in the source map.
	for _, a := range res.Datapath.ALUs {
		if _, ok := ic.Sources[a.Name]; !ok {
			t.Errorf("ALU %s missing from interconnect", a.Name)
		}
	}
	// Terminal syntax.
	for _, srcs := range ic.Sources {
		for _, port := range srcs {
			for _, term := range port {
				if !strings.HasPrefix(term, "reg:") && !strings.HasPrefix(term, "in:") && !strings.HasPrefix(term, "alu:") {
					t.Errorf("bad terminal %q", term)
				}
			}
		}
	}
	// Effective mux area can only be <= the per-signal mux area.
	eff := res.Datapath.EffectiveMuxArea(ic)
	if eff > res.Cost.MuxArea+1e-9 {
		t.Errorf("effective mux area %v > nominal %v", eff, res.Cost.MuxArea)
	}
}

func TestInterconnectRegisterSharing(t *testing.T) {
	// On a register-rich design, at least one port should read two
	// different signals from the same register (line sharing) at some
	// benchmark/time-constraint combination. We scan the examples for a
	// witness to prove the effect is real, not just theoretical.
	witness := false
	for _, mk := range []func() *benchmarks.Example{benchmarks.Diffeq, benchmarks.ARLattice, benchmarks.EWF} {
		ex := mk()
		res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: ex.TimeConstraints[len(ex.TimeConstraints)-1]})
		if err != nil {
			t.Fatal(err)
		}
		ic, err := rtl.AnalyzeInterconnect(ex.Graph, res.Schedule, res.Datapath)
		if err != nil {
			t.Fatal(err)
		}
		if ic.EffectiveInputs < ic.SignalInputs {
			witness = true
		}
	}
	if !witness {
		t.Error("no design exhibited register line sharing")
	}
}

func TestChainedTerminalIsDirectLine(t *testing.T) {
	ex, res := synthFor(t, benchmarks.Chained, 4)
	ic, err := rtl.AnalyzeInterconnect(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, srcs := range ic.Sources {
		for _, port := range srcs {
			for _, term := range port {
				if strings.HasPrefix(term, "alu:") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("chained design has no direct ALU-to-ALU line")
	}
}

func TestPlanBuses(t *testing.T) {
	ex, res := synthFor(t, benchmarks.Facet, 4)
	plan, err := rtl.PlanBuses(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Buses < 1 {
		t.Fatalf("buses = %d", plan.Buses)
	}
	// The bus count is the max of the per-step transfer counts.
	max := 0
	for _, n := range plan.TransfersPerStep {
		if n > max {
			max = n
		}
	}
	if plan.Buses != max {
		t.Errorf("Buses = %d, max per-step = %d", plan.Buses, max)
	}
	// A design with two parallel adds in step 1 needs at least 2 buses
	// (4 operand transfers from input ports).
	if plan.Buses < 2 {
		t.Errorf("facet bus plan suspiciously small: %+v", plan)
	}
}

func TestBusPlanChainedBypass(t *testing.T) {
	// In the chained example, intra-step reads ride direct lines, so the
	// bus demand must not count them.
	ex, res := synthFor(t, benchmarks.Chained, 4)
	plan, err := rtl.PlanBuses(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	// Each step issues one add + one chained sub: the sub's chained input
	// bypasses the bus; remaining transfers per step are bounded by 4.
	for step, n := range plan.TransfersPerStep {
		if n > 4 {
			t.Errorf("step %d: %d bus transfers, want <= 4", step, n)
		}
	}
}
