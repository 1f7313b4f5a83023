package emit

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

func TestVerilogStructure(t *testing.T) {
	ex := benchmarks.Facet()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	wants := []string{
		"module facet",
		"endmodule",
		"input  wire        clk",
		"input  wire [31:0] i1",
		"output wire [31:0] out_",
		"reg [31:0] R0",
		"always @(posedge clk)",
		"case (state)",
		"assign w_add1 = w_i1 + w_i2",
	}
	for _, w := range wants {
		if !strings.Contains(v, w) {
			t.Errorf("netlist missing %q", w)
		}
	}
	// Every node has a wire declaration and an assignment.
	for _, n := range ex.Graph.Nodes() {
		if !strings.Contains(v, "wire [31:0] w_"+n.Name+";") {
			t.Errorf("missing wire for %q", n.Name)
		}
		if !strings.Contains(v, "assign w_"+n.Name+" =") {
			t.Errorf("missing assignment for %q", n.Name)
		}
	}
	// Balanced module/endmodule.
	if strings.Count(v, "module ") != strings.Count(v, "endmodule") {
		t.Error("unbalanced module/endmodule")
	}
}

func TestVerilogInputWires(t *testing.T) {
	// Input references must be prefixed consistently; the raw graph input
	// names feed w_<name> wires via the port list. The emitter references
	// operands as w_<sig>, so inputs used as operands appear as w_i1 etc.
	ex := benchmarks.Diffeq()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	if !strings.Contains(v, "w_dx") {
		t.Error("input operand not referenced")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"abc":     "abc",
		"a-b.c":   "a_b_c",
		"":        "sig",
		"x$1":     "x_1",
		"Under_9": "Under_9",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 17: 5}
	for n, want := range cases {
		if got := bits(n); got != want {
			t.Errorf("bits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPipelinedRestartComment(t *testing.T) {
	ex := benchmarks.Diffeq()
	res, err := mfsa.SynthesizeCtx(context.Background(), ex.Graph, mfsa.Options{CS: 8, Latency: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	if !strings.Contains(v, "functional pipelining") {
		t.Error("pipelined FSM not annotated")
	}
	if !strings.Contains(v, "state == 3") {
		t.Error("restart bound should be latency-1 = 3")
	}
}

func TestNamerCollisions(t *testing.T) {
	// "a+b" and "a-b" both sanitize to "a_b"; the namer must keep the
	// emitted identifiers distinct and must not shadow the FSM's fixed
	// names (clk, rst, state).
	g := dfg.New("collide")
	for _, in := range []string{"a+b", "a-b", "state", "clk"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddOp("x.y", op.Add, "a+b", "a-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x$y", op.Mul, "x.y", "state"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x*y", op.Add, "x$y", "clk"); err != nil {
		t.Fatal(err)
	}
	res, err := mfsa.SynthesizeCtx(context.Background(), g, mfsa.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(g, res.Schedule, res.Datapath, c)
	// Distinct ports for the colliding inputs, uniqued away from the
	// reserved names.
	for _, want := range []string{
		"input  wire [31:0] a_b,",
		"input  wire [31:0] a_b_2,",
		"input  wire [31:0] state_2,",
		"input  wire [31:0] clk_2,",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("netlist missing port %q", want)
		}
	}
	// Every emitted identifier is declared exactly once: collect
	// declarations and check for duplicates.
	decls := make(map[string]int)
	for _, line := range strings.Split(v, "\n") {
		line = strings.TrimSpace(line)
		for _, pfx := range []string{"input  wire [31:0] ", "output wire [31:0] ", "wire [31:0] ", "reg [31:0] "} {
			if rest, ok := strings.CutPrefix(line, pfx); ok {
				id := strings.TrimRight(rest, ",;")
				decls[id]++
				break
			}
		}
	}
	for id, n := range decls {
		if n > 1 {
			t.Errorf("identifier %q declared %d times", id, n)
		}
	}
	if len(decls) < 11 { // 4 ports + 1 output + 4 taps + 3 node wires at minimum
		t.Errorf("unexpectedly few declarations: %d (%v)", len(decls), decls)
	}
}

// verilogScan is the historical emitter: identical to Verilog except
// that every node's state is found by scanning the whole controller
// (stateOfScan), quadratic in the design size. It is the byte-for-byte
// oracle for the single-pass state lookup in emitALUs.
func verilogScan(g *dfg.Graph, s *sched.Schedule, dp *rtl.Datapath, c *ctrl.Controller) string {
	var b strings.Builder
	name := sanitize(g.Name)
	nm := newNamer(g)
	fmt.Fprintf(&b, "// Generated by MFSA synthesis: %d control steps, %d ALUs, %d registers\n",
		s.CS, len(dp.ALUs), len(dp.Registers))
	fmt.Fprintf(&b, "// ALU set: %s\n", dp.ALUSummary())
	fmt.Fprintf(&b, "module %s (\n", name)
	fmt.Fprintf(&b, "    input  wire        clk,\n")
	fmt.Fprintf(&b, "    input  wire        rst,\n")
	for _, in := range g.Inputs() {
		fmt.Fprintf(&b, "    input  wire [31:0] %s,\n", nm.input(in))
	}
	outs := g.Outputs()
	for i, out := range outs {
		comma := ","
		if i == len(outs)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "    output wire [31:0] %s%s\n", nm.output(out), comma)
	}
	fmt.Fprintf(&b, ");\n\n")
	emitState(&b, c)
	emitInputTaps(&b, nm, g)
	emitRegisters(&b, nm, dp, c)
	emitALUsScan(&b, nm, g, dp, c)
	emitOutputs(&b, nm, g)
	fmt.Fprintf(&b, "endmodule\n")
	return b.String()
}

func emitALUsScan(b *strings.Builder, nm *namer, g *dfg.Graph, dp *rtl.Datapath, c *ctrl.Controller) {
	for _, n := range g.Nodes() {
		fmt.Fprintf(b, "    wire [31:0] %s;\n", nm.wire(n.Name))
	}
	fmt.Fprintf(b, "\n")
	for _, a := range dp.ALUs {
		fmt.Fprintf(b, "    // %s: %s — L1=%v L2=%v\n", sanitize(a.Name), a.Unit.Symbol(), a.L1, a.L2)
	}
	fmt.Fprintf(b, "\n")
	actionsByNode := make(map[dfg.NodeID]ctrl.Action)
	for _, st := range c.States {
		for _, act := range st.Actions {
			actionsByNode[act.Node] = act
		}
	}
	ids := make([]dfg.NodeID, 0, g.Len())
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Node(id)
		act := actionsByNode[id]
		switch {
		case n.IsLoop():
			fmt.Fprintf(b, "    // folded loop %q: see submodule %s\n", n.Name, sanitize(n.Sub.Name))
			fmt.Fprintf(b, "    assign %s = 32'd0; // placeholder port of the loop submodule\n", nm.wire(n.Name))
		case len(n.Args) == 1:
			fmt.Fprintf(b, "    assign %s = %s %s; // %s state %s\n",
				nm.wire(n.Name), vOp(n.Op.String()), nm.wire(n.Args[0]), act.ALU, stateOfScan(c, id))
		default:
			fmt.Fprintf(b, "    assign %s = %s %s %s; // %s state %s\n",
				nm.wire(n.Name), nm.wire(n.Args[0]), vOp(n.Op.String()), nm.wire(n.Args[1]),
				act.ALU, stateOfScan(c, id))
		}
	}
	fmt.Fprintf(b, "\n")
}

// stateOfScan names the first state, in state order, that issues id.
func stateOfScan(c *ctrl.Controller, id dfg.NodeID) string {
	for i, st := range c.States {
		for _, act := range st.Actions {
			if act.Node == id {
				return fmt.Sprintf("S%d", i+1)
			}
		}
	}
	return "?"
}

type emitCase struct {
	name string
	g    *dfg.Graph
	s    *sched.Schedule
	dp   *rtl.Datapath
	c    *ctrl.Controller
}

func synthCase(t testing.TB, name string, g *dfg.Graph, opt mfsa.Options) emitCase {
	t.Helper()
	res, err := mfsa.SynthesizeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return emitCase{name, g, res.Schedule, res.Datapath, c}
}

// genCase synthesizes a seeded random graph at its critical path plus
// slack, the shape of the large designs the emitter must stay linear on.
func genCase(t testing.TB, nodes int) emitCase {
	t.Helper()
	g, err := gen.Generate(gen.Config{Nodes: nodes, MulCycles: 2, Seed: int64(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	return synthCase(t, fmt.Sprintf("gen%d", nodes), g, mfsa.Options{CS: g.CriticalPathCycles() + 4, NoTrace: true})
}

// foldedLoopCase emits a design whose loop node is a folded submodule:
// the loop's twin operation is synthesized in its place, then its action
// is removed from the controller, as the top-level FSM does not issue a
// submodule's work.
func foldedLoopCase(t *testing.T) emitCase {
	t.Helper()
	body := dfg.New("body")
	body.AddInput("p")
	body.AddInput("q")
	body.AddOp("r", op.Mul, "p", "q")
	build := func(loop bool) *dfg.Graph {
		g := dfg.New("folded")
		g.AddInput("x")
		g.AddInput("y")
		if loop {
			if _, err := g.AddLoop("l", body, "r", map[string]string{"p": "x", "q": "y"}); err != nil {
				t.Fatal(err)
			}
		} else {
			g.AddOp("l", op.Mul, "x", "y")
		}
		g.AddOp("u", op.Add, "l", "x")
		g.AddOp("v", op.Neg, "u")
		g.AddOp("w", op.Sub, "v", "y")
		return g
	}
	ec := synthCase(t, "folded-loop", build(false), mfsa.Options{CS: 5})
	ec.g = build(true)
	ln, _ := ec.g.Lookup("l")
	lid := ln.ID
	for i := range ec.c.States {
		acts := ec.c.States[i].Actions[:0]
		for _, a := range ec.c.States[i].Actions {
			if a.Node != lid {
				acts = append(acts, a)
			}
		}
		ec.c.States[i].Actions = acts
	}
	return ec
}

// TestVerilogMatchesScanOracle renders the six paper benchmarks (both
// styles, functional pipelining where the example uses it), a folded-loop
// design, a controller with an unissued node and a 2k-node generated
// graph with Verilog and with the historical controller-scan emitter, and
// requires identical bytes.
func TestVerilogMatchesScanOracle(t *testing.T) {
	var cases []emitCase
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		for _, style := range []mfsa.Style{mfsa.Style1, mfsa.Style2} {
			opt := mfsa.Options{CS: cs, Style: style, ClockNs: ex.ClockNs}
			cases = append(cases, synthCase(t, fmt.Sprintf("%s/style%d", ex.Name, style), ex.Graph, opt))
			if ex.Latency != nil {
				opt.Latency = ex.Latency(cs)
				cases = append(cases, synthCase(t, fmt.Sprintf("%s/style%d/latency%d", ex.Name, style, opt.Latency), ex.Graph, opt))
			}
		}
	}
	cases = append(cases, foldedLoopCase(t))
	// A controller that issues some node nowhere renders its state as "?".
	unissued := synthCase(t, "unissued", benchmarks.Diffeq().Graph, mfsa.Options{CS: 6})
	last := &unissued.c.States[len(unissued.c.States)-1]
	last.Actions = last.Actions[1:]
	cases = append(cases, unissued)
	if !testing.Short() {
		cases = append(cases, genCase(t, 2000))
	}
	pipelined, folded, unknown := false, false, false
	for _, ec := range cases {
		got := Verilog(ec.g, ec.s, ec.dp, ec.c)
		want := verilogScan(ec.g, ec.s, ec.dp, ec.c)
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got %q\nwant %q", ec.name, i+1, gl[i], wl[min(i, len(wl)-1)])
				}
			}
			t.Fatalf("%s: netlists differ in length (%d vs %d bytes)", ec.name, len(got), len(want))
		}
		pipelined = pipelined || ec.c.Latency > 0
		folded = folded || strings.Contains(got, "folded loop")
		unknown = unknown || strings.Contains(got, " state ?\n")
	}
	if !pipelined || !folded || !unknown {
		t.Fatalf("coverage: pipelined=%v folded=%v unissued=%v, want all", pipelined, folded, unknown)
	}
}

func BenchmarkVerilog(b *testing.B) {
	for _, nodes := range []int{2000, 8000} {
		ec := genCase(b, nodes)
		b.Run(fmt.Sprintf("gen%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Verilog(ec.g, ec.s, ec.dp, ec.c)
			}
		})
	}
}
