package rtl_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/mfsa"
	"repro/internal/rtl"
)

func TestTestabilityStyles(t *testing.T) {
	// Style 1 on the EWF (a long add chain bound to few adders) has ALU
	// self-loops; style 2 must not.
	ex := benchmarks.EWF()
	s1, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 17, Style: mfsa.Style1})
	if err != nil {
		t.Fatal(err)
	}
	t1 := rtl.AnalyzeTestability(ex.Graph, s1.Datapath)
	if t1.Testable {
		t.Error("style 1 EWF unexpectedly has no self-loops (adder chain should share)")
	}
	if len(t1.SelfLoopALUs) == 0 {
		t.Error("no self-loop ALUs listed")
	}
	if !strings.Contains(t1.String(), "not self-testable") {
		t.Errorf("String = %q", t1.String())
	}

	s2, err := mfsa.SynthesizeCtx(context.Background(), benchmarks.EWF().Graph, mfsa.Options{CS: 17, Style: mfsa.Style2})
	if err != nil {
		t.Fatal(err)
	}
	t2 := rtl.AnalyzeTestability(benchmarks.EWF().Graph, s2.Datapath)
	if !t2.Testable {
		t.Errorf("style 2 has self-loops: %s", t2.String())
	}
	if !strings.Contains(t2.String(), "testable") {
		t.Errorf("String = %q", t2.String())
	}
}

func TestFeedbackPairs(t *testing.T) {
	// Style 2 separates dependent ops across ALUs, which can create
	// feedback pairs (r feeds s and s feeds r). Just check the metric is
	// computed without error and non-negative on a few designs.
	for _, mk := range []func() *benchmarks.Example{benchmarks.Diffeq, benchmarks.ARLattice} {
		ex := mk()
		res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: ex.TimeConstraints[len(ex.TimeConstraints)-1], Style: mfsa.Style2})
		if err != nil {
			t.Fatal(err)
		}
		ta := rtl.AnalyzeTestability(ex.Graph, res.Datapath)
		if ta.FeedbackPairs < 0 {
			t.Errorf("%s: negative feedback pairs", ex.Name)
		}
		if !ta.Testable {
			t.Errorf("%s: style 2 not testable: %s", ex.Name, ta)
		}
	}
}
