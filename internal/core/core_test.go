package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
)

const quickSrc = `
design quick
input a, b, c
s = a + b
p = s * c
d = p - a
`

func TestSynthesizeSource(t *testing.T) {
	d, err := SynthesizeSourceCtx(context.Background(), quickSrc, Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost.Total <= 0 || d.Controller == nil || d.Datapath == nil {
		t.Fatalf("incomplete design: %+v", d.Cost)
	}
	vals, err := d.Simulate(map[string]int64{"a": 2, "b": 3, "c": 4})
	if err != nil {
		t.Fatal(err)
	}
	if vals["d"] != (2+3)*4-2 {
		t.Errorf("d = %d", vals["d"])
	}
	if err := d.SelfCheck(5); err != nil {
		t.Error(err)
	}
}

func TestNetlist(t *testing.T) {
	d, err := SynthesizeSourceCtx(context.Background(), quickSrc, Config{CS: 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v, "module quick") {
		t.Errorf("netlist:\n%s", v)
	}
}

func TestScheduleOnly(t *testing.T) {
	ex := benchmarks.Diffeq()
	d, err := ScheduleOnlyCtx(context.Background(), ex.Graph, Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Datapath != nil {
		t.Error("ScheduleOnly built a datapath")
	}
	if _, err := d.Netlist(); err == nil {
		t.Error("Netlist without datapath accepted")
	}
	if err := d.SelfCheck(3); err != nil {
		t.Error(err)
	}
}

func TestScheduleSourceWithLoops(t *testing.T) {
	src := `
design looped
input x, dx
loop acc cycles 2 binds s = x, d = dx yields nx {
    nx = s + d
}
out = acc * 3
`
	d, ld, err := ScheduleSourceCtx(context.Background(), src, Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Inner) != 1 {
		t.Fatalf("inner designs = %d", len(ld.Inner))
	}
	vals, err := d.Simulate(map[string]int64{"x": 5, "dx": 2})
	if err != nil {
		t.Fatal(err)
	}
	if vals["out"] != 21 {
		t.Errorf("out = %d", vals["out"])
	}
}

func TestResourceConstrainedConfig(t *testing.T) {
	ex := benchmarks.Diffeq()
	d, err := ScheduleOnlyCtx(context.Background(), ex.Graph, Config{Limits: map[string]int{"*": 1, "+": 1, "-": 1, "<": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Schedule.CS < 7 {
		t.Errorf("CS = %d, want >= 7 with one multiplier", d.Schedule.CS)
	}
}

func TestStyleAndWeightsPassThrough(t *testing.T) {
	d1, err := SynthesizeSourceCtx(context.Background(), quickSrc, Config{CS: 4, Style: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.SelfCheck(2); err != nil {
		t.Error(err)
	}
	d2, err := SynthesizeSourceCtx(context.Background(), quickSrc, Config{CS: 4, Weights: [4]float64{1, 10, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.SelfCheck(2); err != nil {
		t.Error(err)
	}
}

func TestPipelinedConfig(t *testing.T) {
	ex := benchmarks.Bandpass()
	d, err := ScheduleOnlyCtx(context.Background(), ex.Graph, Config{CS: 9, PipelinedOps: []string{"*"}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Schedule.PipelinedTypes["*"] {
		t.Error("pipelined type not propagated")
	}
}

func TestBadSource(t *testing.T) {
	if _, err := SynthesizeSourceCtx(context.Background(), "not a design", Config{CS: 4}); err == nil {
		t.Error("bad source accepted")
	}
	if _, _, err := ScheduleSourceCtx(context.Background(), "also bad", Config{CS: 4}); err == nil {
		t.Error("bad source accepted by ScheduleSource")
	}
}

func TestOptimizeConfig(t *testing.T) {
	src := `
design wasteful
input a, b
output y
c = 3 + 4
d1 = a + b
d2 = b + a
dead = a * 99
y = d1 + c
`
	plain, err := SynthesizeSourceCtx(context.Background(), src, Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SynthesizeSourceCtx(context.Background(), src, Config{CS: 4, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Graph.Len() >= plain.Graph.Len() {
		t.Errorf("optimize did not shrink the graph: %d vs %d", opt.Graph.Len(), plain.Graph.Len())
	}
	// The optimized design still computes y correctly end to end.
	vals, err := opt.Simulate(map[string]int64{"a": 2, "b": 3})
	if err != nil {
		t.Fatal(err)
	}
	if vals["y"] != 2+3+7 {
		t.Errorf("y = %d, want 12", vals["y"])
	}
	if err := opt.SelfCheck(3); err != nil {
		t.Error(err)
	}
	if opt.Cost.Total >= plain.Cost.Total {
		t.Logf("note: optimization did not cut cost (%v vs %v) — acceptable but unusual",
			opt.Cost.Total, plain.Cost.Total)
	}
}
