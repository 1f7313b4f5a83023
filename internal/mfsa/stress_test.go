package mfsa

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/mfs"
	"repro/internal/op"
	"repro/internal/sim"
)

// TestExtendedBenchmarksEndToEnd exercises the full flow — MFS, MFSA in
// both styles, and simulation cross-checks — on the extended kernel
// suite at every time constraint.
func TestExtendedBenchmarksEndToEnd(t *testing.T) {
	for _, ex := range benchmarks.Extended() {
		for _, cs := range ex.TimeConstraints {
			s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: cs})
			if err != nil {
				t.Fatalf("%s cs=%d mfs: %v", ex.Name, cs, err)
			}
			if err := sim.CrossCheckCtx(context.Background(), s, nil, sim.RandomInputs(ex.Graph, int64(cs))); err != nil {
				t.Fatalf("%s cs=%d: %v", ex.Name, cs, err)
			}
			for _, style := range []Style{Style1, Style2} {
				res, err := SynthesizeCtx(context.Background(), ex.Graph, Options{CS: cs, Style: style})
				if err != nil {
					t.Fatalf("%s cs=%d style %d: %v", ex.Name, cs, style, err)
				}
				if err := res.Schedule.Verify(nil); err != nil {
					t.Fatalf("%s cs=%d style %d: %v", ex.Name, cs, style, err)
				}
				if err := sim.CrossCheckCtx(context.Background(), res.Schedule, res.Datapath, sim.RandomInputs(ex.Graph, 7)); err != nil {
					t.Fatalf("%s cs=%d style %d: %v", ex.Name, cs, style, err)
				}
				if style == Style2 {
					if err := VerifyStyle2(ex.Graph, res.Datapath); err != nil {
						t.Fatalf("%s cs=%d: %v", ex.Name, cs, err)
					}
				}
			}
		}
	}
}

// TestExtendedMultiplierTrend checks the time/hardware trade-off on the
// extended kernels: multiplier usage must be non-increasing in T and hit
// the serialization floor at the loosest constraint.
func TestExtendedMultiplierTrend(t *testing.T) {
	for _, ex := range benchmarks.Extended() {
		prev := 1 << 30
		for _, cs := range ex.TimeConstraints {
			s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: cs})
			if err != nil {
				t.Fatalf("%s cs=%d: %v", ex.Name, cs, err)
			}
			m := s.InstancesPerType()["*"]
			if m > prev {
				t.Errorf("%s: multipliers increased with looser T (%d -> %d at cs=%d)",
					ex.Name, prev, m, cs)
			}
			prev = m
		}
	}
}

// TestFIR16ResourceConstrained pins the resource-constrained mode on a
// bigger kernel: one 2-cycle multiplier serializes 16 products into at
// least 32 steps.
func TestFIR16ResourceConstrained(t *testing.T) {
	ex := benchmarks.FIR16()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{
		Limits: map[string]int{"*": 1, "+": 1},
		MaxCS:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CS < 32 {
		t.Errorf("cs = %d, below the 32-cycle multiplier serialization bound", s.CS)
	}
	if err := s.Verify(map[string]int{"*": 1, "+": 1}); err != nil {
		t.Fatal(err)
	}
	// Four multipliers roughly quarter the schedule.
	s4, err := mfs.Schedule(ex.Graph, mfs.Options{
		Limits: map[string]int{"*": 4, "+": 2},
		MaxCS:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s4.CS >= s.CS {
		t.Errorf("4 multipliers did not beat 1: %d vs %d steps", s4.CS, s.CS)
	}
}

// TestRandomChainedSynthesis drives MFSA with chaining enabled on random
// graphs and cross-checks every result cycle-accurately.
func TestRandomChainedSynthesis(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	kinds := []op.Kind{op.Add, op.Sub, op.And, op.Lt}
	for trial := 0; trial < 12; trial++ {
		g := dfg.New(fmt.Sprintf("chs%d", trial))
		g.AddInput("i0")
		names := []string{"i0"}
		for i := 0; i < 8+r.Intn(10); i++ {
			name := fmt.Sprintf("n%d", i)
			if _, err := g.AddOp(name, kinds[r.Intn(len(kinds))],
				names[r.Intn(len(names))], names[r.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		cp := g.CriticalPathCycles()
		var res *Result
		var err error
		for cs := cp; cs <= cp+4; cs++ {
			res, err = SynthesizeCtx(context.Background(), g, Options{CS: cs, ClockNs: 100})
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Verify(nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sim.CrossCheckCtx(context.Background(), res.Schedule, res.Datapath, sim.RandomInputs(g, int64(trial))); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
