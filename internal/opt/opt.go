// Package opt implements frontend optimization passes over data-flow
// graphs, run between the behavioral frontend and the schedulers:
// constant folding, common-subexpression elimination (the unconditional
// complement of §5.1's cross-branch merge), and dead-code elimination
// against a set of live outputs. Passes preserve semantics — the tests
// cross-check evaluation before and after — and only ever shrink the
// graph, which shrinks the scheduling problem.
package opt

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/op"
)

// Result reports what a pipeline run changed.
type Result struct {
	Graph  *dfg.Graph
	Consts map[string]int64 // updated constant-input values
	Folded int              // ops replaced by constants
	CSE    int              // duplicate ops merged
	Branch int              // cross-branch duplicates merged (§5.1)
	Dead   int              // unreachable ops removed
}

// Pipeline runs fold → CSE → cross-branch merge (§5.1) → DCE. consts
// gives the values of constant inputs (as produced by the behav
// frontend); outputs lists the live signals (empty = every sink node is
// live, so DCE is a no-op on well-formed graphs but still strips newly
// orphaned subtrees).
func Pipeline(g *dfg.Graph, consts map[string]int64, outputs []string) (*Result, error) {
	res := &Result{Graph: g, Consts: cloneConsts(consts)}
	var err error
	res.Graph, res.Folded, err = FoldConstants(res.Graph, res.Consts)
	if err != nil {
		return nil, err
	}
	res.Graph, res.CSE, err = EliminateCommonSubexpressions(res.Graph)
	if err != nil {
		return nil, err
	}
	res.Graph, res.Branch, err = res.Graph.MergeExclusiveDuplicates()
	if err != nil {
		return nil, err
	}
	res.Graph, res.Dead, err = EliminateDead(res.Graph, outputs)
	if err != nil {
		return nil, err
	}
	if err := res.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	return res, nil
}

func cloneConsts(consts map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(consts))
	for k, v := range consts {
		out[k] = v
	}
	return out
}

// FoldConstants replaces operations whose inputs are all constants with
// new constant inputs, updating consts in place. Operations inside
// conditional branches fold too (their values are branch-independent).
// Loop nodes never fold.
func FoldConstants(g *dfg.Graph, consts map[string]int64) (*dfg.Graph, int, error) {
	value := make(map[string]int64, len(consts))
	for k, v := range consts {
		value[k] = v
	}
	folded := make(map[string]int64) // node name -> folded value
	for _, n := range g.Nodes() {
		if n.IsLoop() || n.Cycles != 1 {
			continue // keep explicit multicycle ops (user-annotated timing)
		}
		vals := make([]int64, len(n.Args))
		ok := true
		for i, a := range n.Args {
			v, isConst := value[a]
			if !isConst {
				ok = false
				break
			}
			vals[i] = v
		}
		if !ok {
			continue
		}
		var v int64
		if len(vals) == 1 {
			v = n.Op.Eval(vals[0], 0)
		} else {
			v = n.Op.Eval(vals[0], vals[1])
		}
		folded[n.Name] = v
		value[n.Name] = v
	}
	if len(folded) == 0 {
		return g, 0, nil
	}
	// Rebuild: folded nodes become constant inputs named like behav's
	// literals so downstream tooling treats them uniformly.
	out := dfg.New(g.Name)
	for _, in := range g.Inputs() {
		if err := out.AddInput(in); err != nil {
			return nil, 0, err
		}
	}
	rename := make(map[string]string)
	for name, v := range folded {
		lit := litName(v)
		if _, exists := consts[lit]; !exists {
			if err := out.AddInput(lit); err != nil {
				// The literal input may collide with an original input
				// name; fall back to a node-specific name.
				lit = name + "_const"
				if err := out.AddInput(lit); err != nil {
					return nil, 0, err
				}
			}
			consts[lit] = v
		}
		rename[name] = lit
	}
	for _, n := range g.Nodes() {
		if _, dead := folded[n.Name]; dead {
			continue
		}
		if err := copyNode(out, g, n, rename); err != nil {
			return nil, 0, err
		}
	}
	return out, len(folded), nil
}

func litName(v int64) string {
	if v < 0 {
		return fmt.Sprintf("lit_m%d", -v)
	}
	return fmt.Sprintf("lit_%d", v)
}

// EliminateCommonSubexpressions merges unconditional operations with
// identical (op, args, cycles) — order-insensitively for commutative
// ops. Conditional operations are left to §5.1's cross-branch merge
// (dfg.MergeExclusiveDuplicates), since merging a guarded op with an
// unguarded one would change which hardware may be shared. A rebuild
// failure — possible only on a malformed input graph — is returned as an
// error instead of panicking.
func EliminateCommonSubexpressions(g *dfg.Graph) (*dfg.Graph, int, error) {
	type key struct {
		op     op.Kind
		a, b   string
		cycles int
	}
	canon := make(map[key]string)
	rename := make(map[string]string)
	drop := make(map[string]bool)
	for _, n := range g.Nodes() {
		if n.IsLoop() || len(n.Excl) > 0 {
			continue
		}
		a := resolve(n.Args[0], rename)
		b := ""
		if len(n.Args) > 1 {
			b = resolve(n.Args[1], rename)
		}
		if n.Op.Commutative() && b != "" && b < a {
			a, b = b, a
		}
		k := key{n.Op, a, b, n.Cycles}
		if prev, ok := canon[k]; ok {
			rename[n.Name] = prev
			drop[n.Name] = true
			continue
		}
		canon[k] = n.Name
	}
	if len(drop) == 0 {
		return g, 0, nil
	}
	out := dfg.New(g.Name)
	for _, in := range g.Inputs() {
		if err := out.AddInput(in); err != nil {
			return nil, 0, fmt.Errorf("opt: CSE rebuild of %s: %w", g.Name, err)
		}
	}
	for _, n := range g.Nodes() {
		if drop[n.Name] {
			continue
		}
		if err := copyNode(out, g, n, rename); err != nil {
			return nil, 0, fmt.Errorf("opt: CSE rebuild of %s: node %q: %w", g.Name, n.Name, err)
		}
	}
	return out, len(drop), nil
}

// EliminateDead removes operations from which no live output is
// reachable. outputs names the live signals; empty means every sink.
func EliminateDead(g *dfg.Graph, outputs []string) (*dfg.Graph, int, error) {
	live := make(map[dfg.NodeID]bool)
	var roots []dfg.NodeID
	if len(outputs) == 0 {
		for _, n := range g.Nodes() {
			if len(n.Succs()) == 0 {
				roots = append(roots, n.ID)
			}
		}
	} else {
		for _, name := range outputs {
			n, ok := g.Lookup(name)
			if !ok {
				return nil, 0, fmt.Errorf("opt: unknown output %q", name)
			}
			roots = append(roots, n.ID)
		}
	}
	var mark func(id dfg.NodeID)
	mark = func(id dfg.NodeID) {
		if live[id] {
			return
		}
		live[id] = true
		for _, p := range g.Node(id).Preds() {
			mark(p)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	dead := g.Len() - len(live)
	if dead == 0 {
		return g, 0, nil
	}
	out := dfg.New(g.Name)
	for _, in := range g.Inputs() {
		if err := out.AddInput(in); err != nil {
			return nil, 0, err
		}
	}
	for _, n := range g.Nodes() {
		if !live[n.ID] {
			continue
		}
		if err := copyNode(out, g, n, nil); err != nil {
			return nil, 0, err
		}
	}
	return out, dead, nil
}

func resolve(name string, rename map[string]string) string {
	for {
		r, ok := rename[name]
		if !ok {
			return name
		}
		name = r
	}
}

// copyNode re-adds node n into out with args resolved through rename.
func copyNode(out, g *dfg.Graph, n *dfg.Node, rename map[string]string) error {
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = resolve(a, rename)
	}
	var id dfg.NodeID
	var err error
	if n.IsLoop() {
		binds := make(map[string]string, len(n.SubIns))
		for i, in := range n.SubIns {
			binds[in] = args[i]
		}
		id, err = out.AddLoop(n.Name, n.Sub, n.SubOut, binds)
	} else {
		id, err = out.AddOp(n.Name, n.Op, args...)
	}
	if err != nil {
		return err
	}
	if err := out.SetCycles(id, n.Cycles); err != nil {
		return err
	}
	if !n.IsLoop() {
		if err := out.SetDelayNs(id, n.DelayNs); err != nil {
			return err
		}
	}
	if len(n.Excl) > 0 {
		if err := out.Tag(id, n.Excl...); err != nil {
			return err
		}
	}
	return nil
}
