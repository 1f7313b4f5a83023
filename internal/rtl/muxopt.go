package rtl

import (
	"sort"

	"repro/internal/dfg"
)

// MuxOp is one operation's operand pair as seen by an ALU's input ports.
type MuxOp struct {
	A, B        string // operand signals (B == "" for unary)
	Commutative bool
}

// OptimizeMuxLists implements §5.6's constructive algorithm: given the
// full set of operations assigned to one ALU, build the two input lists
// L1 and L2 with |L1| + |L2| minimal. Non-commutative operations fix
// their operands to their ports; each commutative operation may be
// swapped. For up to exactSearchLimit commutative operations the
// orientation space is searched exhaustively: the ALU's operand signals
// are interned to dense indices (in order of first appearance in ops)
// and a branch and bound over two port-membership slices and a running
// size visits the orientations, the one adding fewer new signals first,
// pruning once the size meets the best found. Beyond the limit a greedy
// pass with one improvement sweep is used. The returned lists are
// sorted; the swapped slice parallels ops and reports each operation's
// chosen orientation.
func OptimizeMuxLists(ops []MuxOp) (l1, l2 []string, swapped []bool) {
	var sc muxScratch
	return sc.optimize(ops)
}

const exactSearchLimit = 16

// muxScratch holds the exact search's dense-index buffers. One value
// serves every ALU of a ReoptimizeMuxes call; each optimize call resets
// it.
type muxScratch struct {
	ids      map[string]int32 // signal → dense index
	names    []string         // dense index → signal
	in1, in2 []bool           // port membership, indexed by dense index
	flex     []int            // indices into ops of the commutative binary ops
	a, b     []int32          // flexible ops' operands, in flex order
	best     int              // smallest |L1|+|L2| found so far
	bestMask int              // orientations achieving best (bit k: flex op k swapped)
}

func (sc *muxScratch) optimize(ops []MuxOp) (l1, l2 []string, swapped []bool) {
	swapped = make([]bool, len(ops))
	if cap(sc.flex) < len(ops) {
		sc.flex = make([]int, 0, len(ops))
		sc.a, sc.b = make([]int32, 0, len(ops)), make([]int32, 0, len(ops))
		sc.names = make([]string, 0, 2*len(ops))
		sc.in1, sc.in2 = make([]bool, 0, 2*len(ops)), make([]bool, 0, 2*len(ops))
	}
	sc.flex = sc.flex[:0]
	for i, op := range ops {
		if op.B != "" && op.Commutative {
			sc.flex = append(sc.flex, i)
		}
	}
	flex := sc.flex
	if len(flex) > exactSearchLimit {
		set1, set2 := map[string]bool{}, map[string]bool{}
		for _, op := range ops {
			switch {
			case op.B == "":
				set1[op.A] = true
			case !op.Commutative:
				set1[op.A] = true
				set2[op.B] = true
			}
		}
		greedyOrient(ops, flex, set1, set2, swapped)
		improveOnce(ops, flex, set1, set2, swapped)
		return sortedKeys(set1), sortedKeys(set2), swapped
	}

	// Intern the operand signals, marking the fixed operands on their
	// ports and collecting the flexible ops' operands in flex order.
	if sc.ids == nil {
		sc.ids = make(map[string]int32, 2*len(ops))
	}
	clear(sc.ids)
	sc.names, sc.in1, sc.in2 = sc.names[:0], sc.in1[:0], sc.in2[:0]
	intern := func(sig string) int32 {
		id, ok := sc.ids[sig]
		if !ok {
			id = int32(len(sc.names))
			sc.ids[sig] = id
			sc.names = append(sc.names, sig)
			sc.in1, sc.in2 = append(sc.in1, false), append(sc.in2, false)
		}
		return id
	}
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	size := 0
	for _, op := range ops {
		a := intern(op.A)
		switch {
		case op.B == "":
			size += mark(sc.in1, a)
		case !op.Commutative:
			size += mark(sc.in1, a) + mark(sc.in2, intern(op.B))
		default:
			sc.a, sc.b = append(sc.a, a), append(sc.b, intern(op.B))
		}
	}
	sc.best, sc.bestMask = 1<<30, 0
	sc.search(0, 0, size)

	// The search restores the fixed-operand membership; add the chosen
	// orientations and read the lists off in dense order.
	for k, i := range flex {
		x, y := sc.a[k], sc.b[k]
		if sc.bestMask&(1<<k) != 0 {
			x, y = y, x
			swapped[i] = true
		}
		sc.in1[x], sc.in2[y] = true, true
	}
	return sc.members(sc.in1), sc.members(sc.in2), swapped
}

// mark adds signal id to a port, reporting 1 if it was new.
func mark(in []bool, id int32) int {
	if in[id] {
		return 0
	}
	in[id] = true
	return 1
}

// members returns the sorted names of the signals on a port (non-nil,
// as sortedKeys returns).
func (sc *muxScratch) members(in []bool) []string {
	n := 0
	for _, ok := range in {
		if ok {
			n++
		}
	}
	out := make([]string, 0, n)
	for id, ok := range in {
		if ok {
			out = append(out, sc.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// search explores orientation assignments for flexible ops idx onward,
// pruning when the running size already meets the best found. It
// mutates in1/in2 on the way down and restores them on the way up.
//
//hls:noalloc
func (sc *muxScratch) search(idx, mask, size int) {
	if size >= sc.best {
		return // cannot improve: sizes only grow
	}
	if idx == len(sc.a) {
		sc.best, sc.bestMask = size, mask
		return
	}
	a, b := sc.a[idx], sc.b[idx]
	// Try the orientation that adds fewer new signals first.
	direct := sc.cost(sc.in1, a) + sc.cost(sc.in2, b)
	crossed := sc.cost(sc.in1, b) + sc.cost(sc.in2, a)
	swapFirst := crossed < direct
	for k := 0; k < 2; k++ {
		swap := swapFirst != (k == 1)
		x, y := a, b
		m := mask
		if swap {
			x, y = b, a
			m |= 1 << idx
		}
		added1, added2 := !sc.in1[x], !sc.in2[y]
		sc.in1[x], sc.in2[y] = true, true
		grown := size
		if added1 {
			grown++
		}
		if added2 {
			grown++
		}
		sc.search(idx+1, m, grown)
		if added1 {
			sc.in1[x] = false
		}
		if added2 {
			sc.in2[y] = false
		}
	}
}

// cost is 1 when putting signal id on a port would add a new signal
// there, ranking the two orientations; "" never counts.
//
//hls:noalloc
func (sc *muxScratch) cost(in []bool, id int32) int {
	if in[id] || sc.names[id] == "" {
		return 0
	}
	return 1
}

func greedyOrient(ops []MuxOp, flex []int, s1, s2 map[string]bool, swapped []bool) {
	for _, i := range flex {
		op := ops[i]
		direct := addCount(s1, op.A) + addCount(s2, op.B)
		crossed := addCount(s1, op.B) + addCount(s2, op.A)
		swap := crossed < direct
		swapped[i] = swap
		a, b := op.A, op.B
		if swap {
			a, b = b, a
		}
		s1[a] = true
		s2[b] = true
	}
}

// improveOnce flips any single orientation whose flip shrinks |L1|+|L2|,
// repeating until a full sweep makes no progress. Each flip moves at most
// two signals per port, so the sweep keeps per-port signal refcounts and
// scores a candidate flip by its O(1) count deltas instead of re-deriving
// both sets from scratch (historically O(ops) per probe, quadratic per
// sweep — the dominant synthesis cost on 10k+-node designs). The accept
// test (strict size decrease) and sweep order are unchanged, so the
// chosen orientations — and therefore the emitted lists — are identical.
func improveOnce(ops []MuxOp, flex []int, s1, s2 map[string]bool, swapped []bool) {
	c1, c2 := map[string]int{}, map[string]int{}
	for i, op := range ops {
		switch {
		case op.B == "":
			c1[op.A]++
		case !op.Commutative:
			c1[op.A]++
			c2[op.B]++
		default:
			a, b := op.A, op.B
			if swapped[i] {
				a, b = b, a
			}
			c1[a]++
			c2[b]++
		}
	}
	// move adjusts one port's refcount and returns the distinct-signal
	// size change (-1, 0, or +1).
	move := func(c map[string]int, sig string, d int) int {
		c[sig] += d
		if d > 0 && c[sig] == 1 {
			return 1
		}
		if d < 0 && c[sig] == 0 {
			return -1
		}
		return 0
	}
	for changed := true; changed; {
		changed = false
		for _, i := range flex {
			a, b := ops[i].A, ops[i].B
			if swapped[i] {
				a, b = b, a
			}
			// Currently a feeds port 1 and b feeds port 2; probe b/a.
			delta := move(c1, a, -1) + move(c1, b, +1) +
				move(c2, b, -1) + move(c2, a, +1)
			if delta < 0 {
				swapped[i] = !swapped[i]
				changed = true
			} else {
				move(c1, b, -1)
				move(c1, a, +1)
				move(c2, a, -1)
				move(c2, b, +1)
			}
		}
	}
	// Rebuild the final sets.
	for k := range s1 {
		delete(s1, k)
	}
	for k := range s2 {
		delete(s2, k)
	}
	for i, op := range ops {
		switch {
		case op.B == "":
			s1[op.A] = true
		case !op.Commutative:
			s1[op.A] = true
			s2[op.B] = true
		default:
			a, b := op.A, op.B
			if swapped[i] {
				a, b = b, a
			}
			s1[a] = true
			s2[b] = true
		}
	}
}

func addCount(s map[string]bool, sig string) int {
	if sig == "" || s[sig] {
		return 0
	}
	return 1
}

func sortedKeys(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReoptimizeMuxes runs the §5.6 constructive algorithm over every ALU of
// a finished datapath, replacing the incrementally built L1/L2 lists and
// orientations with the jointly optimized ones. It returns how many mux
// inputs were eliminated. The graph supplies each bound node's operands
// and commutativity.
func (d *Datapath) ReoptimizeMuxes(g *dfg.Graph) int {
	saved := 0
	var sc muxScratch
	for _, a := range d.ALUs {
		ops := make([]MuxOp, len(a.Ops))
		for i, b := range a.Ops {
			n := g.Node(b.Node)
			op := MuxOp{A: n.Args[0], Commutative: n.Op.Commutative()}
			if len(n.Args) > 1 {
				op.B = n.Args[1]
			}
			ops[i] = op
		}
		before := len(a.L1) + len(a.L2)
		l1, l2, swapped := sc.optimize(ops)
		after := len(l1) + len(l2)
		if after > before {
			continue // never regress (cannot happen, but stay safe)
		}
		a.L1, a.L2 = l1, l2
		a.invalidateMuxSets() // wholesale replacement; sizes may not drift
		for i := range a.Ops {
			a.Ops[i].Swapped = swapped[i]
		}
		saved += before - after
	}
	return saved
}
