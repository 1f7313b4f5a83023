// Package dfg implements the data-flow-graph behavioral representation
// consumed by the MFS and MFSA algorithms. A Graph is a DAG of operations
// over named signals: every node produces exactly one output signal (its
// Name) and reads its Args, which are either primary inputs or the outputs
// of other nodes. Nodes carry the annotations the paper's extensions need:
// per-node cycle counts (multicycle operations, §5.3), combinational delays
// (chaining, §5.4), mutual-exclusion tags (conditionals, §5.1), and nested
// sub-graphs (loop folding, §5.2).
package dfg

import (
	"fmt"
	"sort"

	"repro/internal/op"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0,
// in insertion order.
type NodeID int

// CondTag marks membership in one branch of one conditional construct.
// Two operations are mutually exclusive when they carry tags with the same
// Cond but different Branch — they sit on opposite sides of an if/else or in
// different arms of a case, so they can never execute in the same run and
// may share a functional unit in the same control step (§5.1).
type CondTag struct {
	Cond   int // conditional construct identifier
	Branch int // branch within the construct
}

// Node is one operation in the graph.
type Node struct {
	ID   NodeID
	Op   op.Kind  // operation kind; Invalid iff Sub != nil
	Name string   // output signal name, unique within the graph
	Args []string // input signal names, in operand order

	// Cycles is the number of consecutive control steps the operation
	// occupies (k-cycle operations, §5.3). Always >= 1.
	Cycles int

	// DelayNs is the combinational propagation delay used by the chaining
	// extension (§5.4) to pack data-dependent operations into one control
	// step of a given clock period.
	DelayNs float64

	// Excl lists the conditional branches this operation belongs to
	// (innermost last). Empty for unconditional operations.
	Excl []CondTag

	// Sub, when non-nil, makes this node a folded loop: a nested graph
	// scheduled under its own local time constraint and treated here as a
	// single multi-cycle operation (§5.2). SubOut names the inner node whose
	// value this node produces; SubIns maps Args positionally onto the inner
	// graph's primary inputs.
	Sub    *Graph
	SubOut string
	SubIns []string

	preds []NodeID
	succs []NodeID
}

// IsLoop reports whether the node is a folded-loop super-operation.
func (n *Node) IsLoop() bool { return n.Sub != nil }

// Preds returns the IDs of nodes whose outputs this node consumes.
// The returned slice must not be modified.
func (n *Node) Preds() []NodeID { return n.preds }

// Succs returns the IDs of nodes consuming this node's output.
// The returned slice must not be modified.
func (n *Node) Succs() []NodeID { return n.succs }

// Graph is a data-flow graph under construction or in use. The zero value
// is not ready; use New.
type Graph struct {
	Name string

	nodes  []*Node
	byName map[string]NodeID
	inputs map[string]bool
}

// New returns an empty graph with the given diagnostic name.
func New(name string) *Graph {
	return &Graph{
		Name:   name,
		byName: make(map[string]NodeID),
		inputs: make(map[string]bool),
	}
}

// AddInput declares a primary input signal. Declaring the same input twice
// is harmless; reusing the name of an existing node is an error.
func (g *Graph) AddInput(name string) error {
	if name == "" {
		return fmt.Errorf("dfg %s: empty input name", g.Name)
	}
	if _, ok := g.byName[name]; ok {
		return fmt.Errorf("dfg %s: input %q collides with node output", g.Name, name)
	}
	g.inputs[name] = true
	return nil
}

// AddOp appends an operation node producing signal name from args and
// returns its ID. Args must already exist as primary inputs or node outputs
// (the graph is built in topological order by construction).
func (g *Graph) AddOp(name string, k op.Kind, args ...string) (NodeID, error) {
	if err := g.checkNew(name); err != nil {
		return -1, err
	}
	if !k.Valid() {
		return -1, fmt.Errorf("dfg %s: node %q: invalid op", g.Name, name)
	}
	if len(args) != k.Arity() {
		return -1, fmt.Errorf("dfg %s: node %q: op %v wants %d args, got %d",
			g.Name, name, k, k.Arity(), len(args))
	}
	n := &Node{
		ID:      NodeID(len(g.nodes)),
		Op:      k,
		Name:    name,
		Args:    append([]string(nil), args...),
		Cycles:  k.DefaultCycles(),
		DelayNs: k.DefaultDelayNs(),
	}
	if err := g.link(n); err != nil {
		return -1, err
	}
	return n.ID, nil
}

// AddLoop appends a folded-loop super-operation (§5.2). sub is the loop
// body (already built, typically already scheduled so its Cycles/local time
// constraint is known), subOut names the inner node whose value the loop
// exposes, and binds maps each of sub's primary inputs to an outer signal.
// The node's Cycles defaults to 1 until SetCycles records the loop's local
// time constraint.
func (g *Graph) AddLoop(name string, sub *Graph, subOut string, binds map[string]string) (NodeID, error) {
	if err := g.checkNew(name); err != nil {
		return -1, err
	}
	if sub == nil {
		return -1, fmt.Errorf("dfg %s: loop %q: nil body", g.Name, name)
	}
	if _, ok := sub.byName[subOut]; !ok {
		return -1, fmt.Errorf("dfg %s: loop %q: body has no node %q", g.Name, name, subOut)
	}
	ins := sub.Inputs()
	if len(binds) != len(ins) {
		return -1, fmt.Errorf("dfg %s: loop %q: body has %d inputs, %d bound",
			g.Name, name, len(ins), len(binds))
	}
	args := make([]string, 0, len(ins))
	subIns := make([]string, 0, len(ins))
	for _, in := range ins {
		outer, ok := binds[in]
		if !ok {
			return -1, fmt.Errorf("dfg %s: loop %q: body input %q not bound", g.Name, name, in)
		}
		args = append(args, outer)
		subIns = append(subIns, in)
	}
	n := &Node{
		ID:     NodeID(len(g.nodes)),
		Op:     op.Invalid,
		Name:   name,
		Args:   args,
		Cycles: 1,
		Sub:    sub,
		SubOut: subOut,
		SubIns: subIns,
	}
	if err := g.link(n); err != nil {
		return -1, err
	}
	return n.ID, nil
}

func (g *Graph) checkNew(name string) error {
	if name == "" {
		return fmt.Errorf("dfg %s: empty node name", g.Name)
	}
	if _, ok := g.byName[name]; ok {
		return fmt.Errorf("dfg %s: duplicate node %q", g.Name, name)
	}
	if g.inputs[name] {
		return fmt.Errorf("dfg %s: node %q collides with primary input", g.Name, name)
	}
	return nil
}

func (g *Graph) link(n *Node) error {
	seen := make(map[NodeID]bool)
	for _, a := range n.Args {
		if pid, ok := g.byName[a]; ok {
			if !seen[pid] {
				seen[pid] = true
				n.preds = append(n.preds, pid)
				g.nodes[pid].succs = append(g.nodes[pid].succs, n.ID)
			}
			continue
		}
		if !g.inputs[a] {
			return fmt.Errorf("dfg %s: node %q: undefined signal %q", g.Name, n.Name, a)
		}
	}
	g.nodes = append(g.nodes, n)
	g.byName[n.Name] = n.ID
	return nil
}

// SetCycles overrides the number of control steps node id occupies
// (k >= 1). Used to model 2-cycle multipliers and folded-loop durations.
func (g *Graph) SetCycles(id NodeID, k int) error {
	if k < 1 {
		return fmt.Errorf("dfg %s: SetCycles(%d): cycles %d < 1", g.Name, id, k)
	}
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.Cycles = k
	return nil
}

// SetDelayNs overrides the combinational delay of node id (chaining, §5.4).
func (g *Graph) SetDelayNs(id NodeID, ns float64) error {
	if ns <= 0 {
		return fmt.Errorf("dfg %s: SetDelayNs(%d): delay %v <= 0", g.Name, id, ns)
	}
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.DelayNs = ns
	return nil
}

// Tag appends conditional-branch membership to node id (§5.1).
func (g *Graph) Tag(id NodeID, tags ...CondTag) error {
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.Excl = append(n.Excl, tags...)
	return nil
}

func (g *Graph) node(id NodeID) (*Node, error) {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil, fmt.Errorf("dfg %s: no node %d", g.Name, id)
	}
	return g.nodes[id], nil
}

// Node returns the node with the given ID; it panics on a bad ID, which
// always indicates a programming error: IDs are minted only by this
// graph's Add* methods, so a lookup can fail only when a caller crosses
// IDs between graphs or fabricates one — unreachable through correct use
// of the API, and not a condition an error return could make the buggy
// caller handle sensibly.
func (g *Graph) Node(id NodeID) *Node {
	n, err := g.node(id)
	if err != nil {
		panic("dfg: " + err.Error())
	}
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Lookup returns the node producing the named signal, if any.
func (g *Graph) Lookup(name string) (*Node, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.nodes[id], true
}

// Inputs returns the primary input names in sorted order.
func (g *Graph) Inputs() []string {
	ins := make([]string, 0, len(g.inputs))
	for in := range g.inputs {
		ins = append(ins, in)
	}
	sort.Strings(ins)
	return ins
}

// Outputs returns the names of nodes with no successors (the design's
// primary outputs), sorted.
func (g *Graph) Outputs() []string {
	var outs []string
	for _, n := range g.nodes {
		if len(n.succs) == 0 {
			outs = append(outs, n.Name)
		}
	}
	sort.Strings(outs)
	return outs
}

// Nodes returns all nodes in ID order. The slice must not be modified.
func (g *Graph) Nodes() []*Node { return g.nodes }

// MutuallyExclusive reports whether nodes a and b can never execute in the
// same run: they carry tags for the same conditional but different branches.
func (g *Graph) MutuallyExclusive(a, b NodeID) bool {
	na, nb := g.Node(a), g.Node(b)
	for _, ta := range na.Excl {
		for _, tb := range nb.Excl {
			if ta.Cond == tb.Cond && ta.Branch != tb.Branch {
				return true
			}
		}
	}
	return false
}

// HasExclusions reports whether any node carries a mutual-exclusion tag
// — i.e. whether MutuallyExclusive can ever return true on this graph.
// When it cannot, an occupied grid cell is provably illegal for every
// operation, which lets the schedulers' window walks skip occupied cells
// straight from grid.Table's occupancy index without consulting the
// occupant lists. The scan is O(nodes); callers that probe it per
// placement should cache the answer for the duration of one run (tags
// are set at graph-construction time, before scheduling starts).
func (g *Graph) HasExclusions() bool {
	for _, n := range g.nodes {
		if len(n.Excl) > 0 {
			return true
		}
	}
	return false
}

// TopoOrder returns node IDs in a deterministic topological order
// (dependencies first; ties broken by ID). Graphs are acyclic by
// construction, so this always succeeds.
func (g *Graph) TopoOrder() []NodeID {
	order := make([]NodeID, len(g.nodes))
	for i := range order {
		order[i] = NodeID(i) // insertion order is already topological
	}
	return order
}

// CriticalPathCycles returns the length, in control steps, of the longest
// dependency chain — the minimum feasible time constraint (without
// chaining).
func (g *Graph) CriticalPathCycles() int {
	finish := make([]int, len(g.nodes))
	longest := 0
	for _, id := range g.TopoOrder() {
		n := g.nodes[id]
		start := 0
		for _, p := range n.preds {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + n.Cycles
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest
}

// Validate checks structural invariants: unique non-empty names, defined
// arguments, positive cycle counts, consistent pred/succ cross-links, and
// well-formed loop nodes. It returns the first violation found.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if n.Name == "" {
			return fmt.Errorf("dfg %s: node %d: empty name", g.Name, n.ID)
		}
		if got, ok := g.byName[n.Name]; !ok || got != n.ID {
			return fmt.Errorf("dfg %s: node %q: name index broken", g.Name, n.Name)
		}
		if n.Cycles < 1 {
			return fmt.Errorf("dfg %s: node %q: cycles %d", g.Name, n.Name, n.Cycles)
		}
		if n.IsLoop() {
			if n.Op.Valid() {
				return fmt.Errorf("dfg %s: loop %q has op %v", g.Name, n.Name, n.Op)
			}
			if err := n.Sub.Validate(); err != nil {
				return fmt.Errorf("dfg %s: loop %q: %w", g.Name, n.Name, err)
			}
		} else {
			if !n.Op.Valid() {
				return fmt.Errorf("dfg %s: node %q: invalid op", g.Name, n.Name)
			}
			if len(n.Args) != n.Op.Arity() {
				return fmt.Errorf("dfg %s: node %q: arity mismatch", g.Name, n.Name)
			}
		}
		for _, a := range n.Args {
			if _, ok := g.byName[a]; !ok && !g.inputs[a] {
				return fmt.Errorf("dfg %s: node %q: undefined arg %q", g.Name, n.Name, a)
			}
		}
		for _, p := range n.preds {
			if p >= n.ID {
				return fmt.Errorf("dfg %s: node %q: forward pred %d", g.Name, n.Name, p)
			}
			if !containsID(g.nodes[p].succs, n.ID) {
				return fmt.Errorf("dfg %s: node %q: pred %d missing back-link", g.Name, n.Name, p)
			}
		}
		for _, s := range n.succs {
			if !containsID(g.nodes[s].preds, n.ID) {
				return fmt.Errorf("dfg %s: node %q: succ %d missing back-link", g.Name, n.Name, s)
			}
		}
	}
	return nil
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph (loop bodies are shared, since
// they are scheduled independently and treated as read-only here). The
// clone is unfrozen.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	for in := range g.inputs {
		c.inputs[in] = true
	}
	c.nodes = make([]*Node, len(g.nodes))
	for i, n := range g.nodes {
		cn := *n
		cn.Args = append([]string(nil), n.Args...)
		cn.Excl = append([]CondTag(nil), n.Excl...)
		cn.SubIns = append([]string(nil), n.SubIns...)
		cn.preds = append([]NodeID(nil), n.preds...)
		cn.succs = append([]NodeID(nil), n.succs...)
		c.nodes[i] = &cn
		c.byName[cn.Name] = cn.ID
	}
	return c
}
