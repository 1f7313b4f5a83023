package mfsa

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/library"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// TestRegDeltaMatchesPackOracle runs full syntheses over every benchmark
// with checkRegDelta armed, so every single f^REG evaluation the
// incremental overlap counter produces is cross-checked in regDelta
// against the original pack-both-interval-lists-and-diff oracle. Any
// divergence panics with the node and step. Options cover the dimensions
// that shape lifetimes: chaining (same-step consumption shrinks spans),
// registered inputs (signals born at boundary 0), reweighted f^REG
// (different commit orders), and the frozen-time Allocate path.
func TestRegDeltaMatchesPackOracle(t *testing.T) {
	checkRegDelta = true
	defer func() { checkRegDelta = false }()

	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			variants := []struct {
				name string
				opt  Options
			}{
				{"plain", Options{CS: cs}},
				{"chained", Options{CS: cs, ClockNs: ex.ClockNs}},
				{"reginputs", Options{CS: cs, RegisterInputs: true}},
				{"regweight", Options{CS: cs, Weights: Weights{Time: 1, ALU: 1, Mux: 1, Reg: 5}}},
			}
			for _, v := range variants {
				if v.opt.ClockNs == 0 && cs < ex.Graph.CriticalPathCycles() {
					continue // constraint only feasible with chaining on
				}
				t.Run(fmt.Sprintf("%s/T=%d/%s", ex.Name, cs, v.name), func(t *testing.T) {
					res, err := SynthesizeCtx(context.Background(), ex.Graph, v.opt)
					if err != nil {
						t.Fatalf("Synthesize: %v", err)
					}
					// The frozen-time binder exercises bindOne's memo path
					// over the schedule the full run just produced.
					if _, err := AllocateCtx(context.Background(), res.Schedule, Options{Lib: v.opt.Lib, RegisterInputs: v.opt.RegisterInputs}); err != nil {
						t.Fatalf("Allocate: %v", err)
					}
				})
			}
		}
	}
}

// TestRegBaseTracksPackedCount asserts the committed-prefix invariant
// white-box: replaying a finished schedule through the state one commit
// at a time, the incrementally maintained regBase must equal
// len(rtl.PackRegisters(intervals(nil, 0))) — the quantity the old
// regDelta recomputed from scratch — after every single commit.
func TestRegBaseTracksPackedCount(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, registerInputs := range []bool{false, true} {
			ex := ex
			name := ex.Name
			if registerInputs {
				name += "/reginputs"
			}
			t.Run(name, func(t *testing.T) {
				cs := ex.TimeConstraints[0]
				opt := Options{CS: cs, ClockNs: ex.ClockNs, RegisterInputs: registerInputs}
				res, err := SynthesizeCtx(context.Background(), ex.Graph, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Lib = libOf(t, opt)
				frames, err := sched.ComputeFrames(ex.Graph, cs, opt.ClockNs)
				if err != nil {
					t.Fatal(err)
				}
				s := newState(ex.Graph, opt, frames, nil)
				if got, want := s.regBase, len(rtl.PackRegisters(s.intervals(nil, 0))); got != want {
					t.Fatalf("initial regBase = %d, packed count = %d", got, want)
				}
				for _, st := range res.Schedule.Trace.Steps {
					n := ex.Graph.Node(st.Node)
					u, ok := opt.Lib.Lookup(st.Type)
					if !ok {
						t.Fatalf("trace names unknown unit %q", st.Type)
					}
					if err := s.commit(n, candidate{unit: u, pos: st.Pos, value: st.Energy}, nil, nil); err != nil {
						t.Fatalf("replaying %q: %v", n.Name, err)
					}
					if got, want := s.regBase, len(rtl.PackRegisters(s.intervals(nil, 0))); got != want {
						t.Fatalf("after committing %q: regBase = %d, packed count = %d", n.Name, got, want)
					}
				}
			})
		}
	}
}

// libOf resolves the library an Options value would synthesize with.
func libOf(t *testing.T, opt Options) *library.Library {
	t.Helper()
	if opt.Lib != nil {
		return opt.Lib
	}
	return library.NCRLike()
}
