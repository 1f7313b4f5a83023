package opt

import (
	"testing"

	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/sim"
)

func build(t *testing.T, src string) (*dfg.Graph, map[string]int64) {
	t.Helper()
	g, consts, err := behav.BuildSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return g, consts
}

// checkEquivalent verifies that live signals evaluate identically before
// and after optimization on random inputs.
func checkEquivalent(t *testing.T, before *dfg.Graph, beforeConsts map[string]int64,
	res *Result, signals []string) {
	t.Helper()
	for seed := int64(1); seed <= 4; seed++ {
		in := sim.RandomInputs(before, seed)
		for k, v := range beforeConsts {
			in[k] = v
		}
		want, err := before.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		in2 := sim.RandomInputs(res.Graph, seed)
		// Align shared inputs and constants.
		for _, name := range res.Graph.Inputs() {
			if v, ok := in[name]; ok {
				in2[name] = v
			}
			if v, ok := res.Consts[name]; ok {
				in2[name] = v
			}
		}
		got, err := res.Graph.Eval(in2)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range signals {
			if got[sig] != want[sig] {
				t.Fatalf("seed %d: %q = %d, want %d", seed, sig, got[sig], want[sig])
			}
		}
	}
}

func TestFoldConstants(t *testing.T) {
	g, consts := build(t, `
design fold
input a
c = 3 + 4
d = c * 2
y = a + d
`)
	res, err := Pipeline(g, consts, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded < 2 {
		t.Errorf("folded = %d, want >= 2 (c and d)", res.Folded)
	}
	if res.Graph.Len() != 1 {
		t.Errorf("remaining ops = %d, want 1 (just y)", res.Graph.Len())
	}
	if res.Consts["lit_14"] != 14 {
		t.Errorf("folded constant missing: %v", res.Consts)
	}
	checkEquivalent(t, g, consts, res, []string{"y"})
}

func TestFoldKeepsMulticycle(t *testing.T) {
	g, consts := build(t, `
design mc
input a
m = 3 * 4 @2
y = a + m
`)
	res, err := Pipeline(g, consts, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 0 {
		t.Errorf("multicycle op folded away (user timing annotation lost)")
	}
}

func TestCSE(t *testing.T) {
	g, consts := build(t, `
design cse
input a, b
x = a + b
y = b + a
u = x * 2
v = y * 2
w = u - v
`)
	res, err := Pipeline(g, consts, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	// y merges into x (commutative), then v into u, then w = u - u stays.
	if res.CSE != 2 {
		t.Errorf("CSE = %d, want 2", res.CSE)
	}
	checkEquivalent(t, g, consts, res, []string{"w"})
}

func TestCSESkipsConditionals(t *testing.T) {
	g, consts := build(t, `
design condcse
input a, b
if a < b {
    x = a + b
} else {
    y = a + b
}
`)
	res, err := Pipeline(g, consts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSE != 0 {
		t.Errorf("CSE merged guarded ops (that is §5.1's job): %d", res.CSE)
	}
}

func TestCSERespectsNonCommutative(t *testing.T) {
	g, consts := build(t, `
design nc
input a, b
x = a - b
y = b - a
`)
	res, err := Pipeline(g, consts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSE != 0 {
		t.Error("a-b merged with b-a")
	}
}

func TestDCE(t *testing.T) {
	g, consts := build(t, `
design dead
input a
live = a + 1
waste1 = a * 3
waste2 = waste1 - 1
`)
	res, err := Pipeline(g, consts, []string{"live"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead != 2 {
		t.Errorf("dead = %d, want 2", res.Dead)
	}
	if _, ok := res.Graph.Lookup("waste1"); ok {
		t.Error("dead op survived")
	}
	checkEquivalent(t, g, consts, res, []string{"live"})
}

func TestDCEUnknownOutput(t *testing.T) {
	g, consts := build(t, "design d\ninput a\nx = a + 1\n")
	if _, err := Pipeline(g, consts, []string{"nosuch"}); err == nil {
		t.Error("unknown output accepted")
	}
}

func TestPipelineNoChanges(t *testing.T) {
	ex := benchmarks.Facet()
	res, err := Pipeline(ex.Graph, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 0 || res.CSE != 0 || res.Branch != 0 || res.Dead != 0 {
		t.Errorf("facet changed: folded %d, merged %d, cross-branch %d, dead %d",
			res.Folded, res.CSE, res.Branch, res.Dead)
	}
}

func TestPipelineOnDiffeq(t *testing.T) {
	// The classic diffeq has a genuine common subexpression (u·dx twice).
	ex := benchmarks.Diffeq()
	res, err := Pipeline(ex.Graph, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSE != 1 {
		t.Errorf("CSE = %d, want 1 (m1 and m6 are both u*dx)", res.CSE)
	}
	if res.Graph.Len() != ex.Graph.Len()-1 {
		t.Errorf("len = %d, want %d", res.Graph.Len(), ex.Graph.Len()-1)
	}
}

func TestPipelineMergesCrossBranchDuplicates(t *testing.T) {
	// §5.1: both branches compute the same value; the pipeline keeps one
	// copy (distinct names, so plain CSE cannot touch them).
	g, consts := build(t, `
design branchdup
input a, b
if a < b {
    lo = a + b
    lo_use = lo * 2
} else {
    hi = b + a
    hi_use = hi * 3
}
`)
	res, err := Pipeline(g, consts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Branch != 1 {
		t.Errorf("Branch = %d, want 1 (lo/hi merge)", res.Branch)
	}
	checkEquivalent(t, g, consts, res, []string{"lo_use", "hi_use"})
}
