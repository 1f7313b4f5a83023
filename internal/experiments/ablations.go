package experiments

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/benchmarks"
	"repro/internal/liapunov"
	"repro/internal/library"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/report"
)

// AblationLiapunovCtx contrasts the two §3.1 guiding functions under the
// same fixed time constraint: the intended time-constrained V = x + n·y
// (fill a step before opening the next) against the resource-constrained
// V = cs·x + y (pack a unit's column first). Both produce legal
// schedules; the table shows how the choice shifts the FU mix, the
// design decision DESIGN.md §6 calls out.
func AblationLiapunovCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Ablation — Liapunov function choice under a time constraint",
		"Ex", "T", "time-constrained V", "resource-constrained V")
	jobs := firstConstraintJobs(func(ex *benchmarks.Example) bool {
		return ex.ClockNs == 0 && ex.Latency == nil
	})
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		a, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs})
		if err != nil {
			return nil, err
		}
		b, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{
			CS:       cs,
			Liapunov: liapunov.ResourceConstrained{CS: cs + 1},
		})
		if err != nil {
			return nil, err
		}
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			fuNotation(a.InstancesPerType()), fuNotation(b.InstancesPerType())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationWeightsCtx measures what each hardware term of MFSA's dynamic
// Liapunov function buys: the balanced optimizer against runs with the
// multiplexer term disabled, the register term disabled, and the ALU
// term disabled (time always dominates). On the full library the
// structural mechanisms (primary-unit floors and the redundant frame)
// mask the terms, so the ablation runs on a restricted shared-ALU
// library — only a (+-*) multi-function ALU plus single-function cells
// for the remaining kinds — where operations crowd onto shared units and
// the incremental multiplexer and register terms actively steer binding,
// mirroring the restricted-library usage §6 describes.
func AblationWeightsCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Ablation — MFSA Liapunov terms on a shared-ALU library (total cost, µm²)",
		"Ex", "T", "balanced", "no-MUX-term", "no-REG-term", "no-ALU-term")
	lib, err := sharedALULibrary()
	if err != nil {
		return nil, err
	}
	configs := []mfsa.Weights{
		{Time: 1, ALU: 1, Mux: 1, Reg: 1},
		{Time: 1, ALU: 1, Mux: 0, Reg: 1},
		{Time: 1, ALU: 1, Mux: 1, Reg: 0},
		{Time: 1, ALU: 0, Mux: 1, Reg: 1},
	}
	jobs := firstConstraintJobs(nil)
	err = parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		cells := []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs}
		for _, w := range configs {
			res, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{
				CS: cs, ClockNs: ex.ClockNs, Lib: lib, Weights: w,
			})
			if err != nil {
				return nil, fmt.Errorf("%s weights %+v: %w", ex.Name, w, err)
			}
			cells = append(cells, fmt.Sprintf("%.0f", res.Cost.Total))
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// sharedALULibrary restricts the NCR-like library to one multi-function
// arithmetic ALU plus the single-function cells the benchmarks' other
// operations need.
func sharedALULibrary() (*library.Library, error) {
	full := library.NCRLike()
	return full.Restrict(
		library.ComposeName(op.Add, op.Sub, op.Mul),
		"fu_div", "fu_lt", "fu_and", "fu_or",
	)
}

// AblationRedundantFrameCtx contrasts the ⌈N_j/cs⌉ starting estimate for
// current_j (the redundant frame, RF) against starting every type at its
// hard maximum (no RF exclusion): without RF the time-dominant function
// spreads operations over all columns and the FU mix degrades toward the
// ASAP profile.
func AblationRedundantFrameCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Ablation — redundant frame (RF) starting estimate",
		"Ex", "T", "with RF", "without RF (current_j = max_j)")
	jobs := firstConstraintJobs(func(ex *benchmarks.Example) bool {
		return ex.ClockNs == 0 && ex.Latency == nil
	})
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		with, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs})
		if err != nil {
			return nil, err
		}
		// Disable RF by granting every type its observed upper bound as
		// the user limit AND as the starting estimate: the limit map
		// makes max_j explicit, and a second schedule with per-type
		// limits equal to the with-RF usage would be circular, so we
		// instead set limits to the ASAP peak (the no-balancing regime's
		// natural demand).
		asap, err := asapPeaks(ex)
		if err != nil {
			return nil, err
		}
		without, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs, NoRedundantFrame: true, Limits: asap})
		if err != nil {
			return nil, err
		}
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			fuNotation(with.InstancesPerType()), fuNotation(without.InstancesPerType())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// asapPeaks returns each type's peak concurrency in the ASAP schedule —
// the FU demand of an unbalanced scheduler, used as the hard max_j in
// the no-RF ablation.
func asapPeaks(ex *benchmarks.Example) (map[string]int, error) {
	s, err := baseline.ASAP(ex.Graph)
	if err != nil {
		return nil, err
	}
	return s.InstancesPerType(), nil
}
