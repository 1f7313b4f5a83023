package sim

import (
	"context"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/mfs"
)

func TestRunPipelinedDiffeq(t *testing.T) {
	ex := benchmarks.Diffeq()
	cs := 8
	lat := ex.Latency(cs)
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: cs, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []map[string]int64
	for k := int64(0); k < 4; k++ {
		inputs = append(inputs, RandomInputs(ex.Graph, k))
	}
	run, err := RunPipelinedCtx(context.Background(), s, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Iterations) != 4 {
		t.Fatalf("iterations = %d", len(run.Iterations))
	}
	if run.Throughput != lat {
		t.Errorf("throughput = %d, want %d", run.Throughput, lat)
	}
	wantSteps := 3*lat + cs
	if run.TotalSteps != wantSteps {
		t.Errorf("TotalSteps = %d, want %d", run.TotalSteps, wantSteps)
	}
	// Pipelining must beat sequential execution on makespan.
	if seq := 4 * cs; run.TotalSteps >= seq {
		t.Errorf("pipelined makespan %d not better than sequential %d", run.TotalSteps, seq)
	}
	// Each iteration's values are that iteration's, not a neighbor's.
	for k, vals := range run.Iterations {
		want, err := ex.Graph.Eval(inputs[k])
		if err != nil {
			t.Fatal(err)
		}
		if vals["sub2"] != want["sub2"] {
			t.Errorf("iteration %d: sub2 = %d, want %d", k, vals["sub2"], want["sub2"])
		}
	}
}

func TestRunPipelinedErrors(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipelinedCtx(context.Background(), s, []map[string]int64{RandomInputs(ex.Graph, 1)}); err == nil {
		t.Error("unpipelined schedule accepted")
	}
	dq := benchmarks.Diffeq()
	sp, err := mfs.Schedule(dq.Graph, mfs.Options{CS: 8, Latency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipelinedCtx(context.Background(), sp, nil); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := RunPipelinedCtx(context.Background(), sp, []map[string]int64{{}}); err == nil {
		t.Error("missing inputs accepted")
	}
}

func TestUtilization(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	u := s.Utilization()
	// 6 multiplications on 2 multipliers over 4 steps = 75%.
	if got := u["*"]; got < 0.74 || got > 0.76 {
		t.Errorf("multiplier utilization = %v, want 0.75", got)
	}
	for typ, v := range u {
		if v <= 0 || v > 1.0+1e-9 {
			t.Errorf("%s utilization = %v out of range", typ, v)
		}
	}
	// Functional pipelining raises utilization (span shrinks to L).
	sp, err := mfs.Schedule(benchmarks.Diffeq().Graph, mfs.Options{CS: 8, Latency: 4})
	if err != nil {
		t.Fatal(err)
	}
	up := sp.Utilization()
	s8, err := mfs.Schedule(benchmarks.Diffeq().Graph, mfs.Options{CS: 8})
	if err != nil {
		t.Fatal(err)
	}
	u8 := s8.Utilization()
	// Pipelining shrinks the reuse span to L, so utilization cannot drop
	// even though throughput doubles (instances scale with demand).
	if up["*"] < u8["*"]-1e-9 {
		t.Errorf("pipelined utilization %v below unpipelined %v", up["*"], u8["*"])
	}
}
