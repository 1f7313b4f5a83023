package rtl

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestOptimizeMuxListsBasic(t *testing.T) {
	// Two commutative ops with mirrored operands: the optimizer must use
	// the swap so both lists stay singletons.
	ops := []MuxOp{
		{A: "a", B: "b", Commutative: true},
		{A: "b", B: "a", Commutative: true},
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	if len(l1)+len(l2) != 2 {
		t.Fatalf("|L1|+|L2| = %d, want 2 (L1=%v L2=%v)", len(l1)+len(l2), l1, l2)
	}
	if swapped[0] == swapped[1] {
		t.Error("exactly one of the two ops should be swapped")
	}
}

func TestOptimizeMuxListsNonCommutativeFixed(t *testing.T) {
	ops := []MuxOp{
		{A: "a", B: "b", Commutative: false},
		{A: "b", B: "a", Commutative: false},
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	if len(l1) != 2 || len(l2) != 2 {
		t.Errorf("non-commutative lists = %v / %v", l1, l2)
	}
	if swapped[0] || swapped[1] {
		t.Error("non-commutative op reported swapped")
	}
}

func TestOptimizeMuxListsUnary(t *testing.T) {
	ops := []MuxOp{{A: "a"}, {A: "a"}, {A: "b"}}
	l1, l2, _ := OptimizeMuxLists(ops)
	if len(l1) != 2 || len(l2) != 0 {
		t.Errorf("unary lists = %v / %v", l1, l2)
	}
}

func TestOptimizeBeatsGreedyOrderTrap(t *testing.T) {
	// A case where greedy-in-order is suboptimal: the first op has no
	// preference (fresh lists), but its orientation decides whether the
	// later ops can share. ops: (x,y) then (y,z) then (y,w): orienting
	// op0 as (y on L1) lets ops 1,2 put y on L1 too.
	ops := []MuxOp{
		{A: "x", B: "y", Commutative: true},
		{A: "y", B: "z", Commutative: true},
		{A: "y", B: "w", Commutative: true},
	}
	l1, l2, _ := OptimizeMuxLists(ops)
	// Optimal: L1 = {y}? no — op0 needs x somewhere: best is
	// L1={y,x?}... enumerate: orientations giving y always on one side:
	// op0 (y|x), op1 (y|z), op2 (y|w): L1={y}, L2={x,z,w}: total 4.
	if got := len(l1) + len(l2); got != 4 {
		t.Errorf("|L1|+|L2| = %d (L1=%v L2=%v), want 4", got, l1, l2)
	}
}

func TestOptimizeExactMatchesBruteForce(t *testing.T) {
	// Property: for small random instances the optimizer matches an
	// independent brute-force minimum.
	r := rand.New(rand.NewSource(77))
	sigs := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		ops := make([]MuxOp, n)
		for i := range ops {
			ops[i] = MuxOp{
				A:           sigs[r.Intn(len(sigs))],
				B:           sigs[r.Intn(len(sigs))],
				Commutative: r.Intn(2) == 0,
			}
		}
		l1, l2, _ := OptimizeMuxLists(ops)
		got := len(l1) + len(l2)
		want := bruteForceMin(ops)
		if got != want {
			t.Fatalf("trial %d: optimizer %d, brute force %d (ops %+v)", trial, got, want, ops)
		}
	}
}

func bruteForceMin(ops []MuxOp) int {
	var flex []int
	for i, op := range ops {
		if op.Commutative && op.B != "" {
			flex = append(flex, i)
		}
	}
	best := 1 << 30
	for mask := 0; mask < 1<<len(flex); mask++ {
		s1, s2 := map[string]bool{}, map[string]bool{}
		swap := make(map[int]bool)
		for idx, i := range flex {
			swap[i] = mask&(1<<idx) != 0
		}
		for i, op := range ops {
			a, b := op.A, op.B
			if swap[i] {
				a, b = b, a
			}
			s1[a] = true
			if b != "" {
				s2[b] = true
			}
		}
		if size := len(s1) + len(s2); size < best {
			best = size
		}
	}
	return best
}

func TestOptimizeLargeFallsBackToGreedy(t *testing.T) {
	// More commutative ops than the exact limit: the greedy+improve path
	// must still produce consistent lists covering every operand.
	r := rand.New(rand.NewSource(3))
	sigs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ops := make([]MuxOp, exactSearchLimit+8)
	for i := range ops {
		ops[i] = MuxOp{A: sigs[r.Intn(len(sigs))], B: sigs[r.Intn(len(sigs))], Commutative: true}
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	in := func(l []string, s string) bool {
		for _, x := range l {
			if x == s {
				return true
			}
		}
		return false
	}
	for i, op := range ops {
		a, b := op.A, op.B
		if swapped[i] {
			a, b = b, a
		}
		if !in(l1, a) || !in(l2, b) {
			t.Fatalf("op %d operands not covered by lists", i)
		}
	}
}

func TestReoptimizeMuxesNeverRegresses(t *testing.T) {
	// Covered end-to-end in the mfsa tests; here check the empty case.
	dp := NewDatapath(nil)
	if dp.ReoptimizeMuxes(nil) != 0 {
		t.Error("empty datapath reported savings")
	}
}

// improveOnceScan is the historical quadratic sweep — two full set
// rebuilds per candidate flip — kept as the oracle the incremental
// refcount sweep must match flip for flip.
func improveOnceScan(ops []MuxOp, flex []int, swapped []bool) {
	for changed := true; changed; {
		changed = false
		for _, i := range flex {
			cur := rebuildSize(ops, flex, swapped)
			swapped[i] = !swapped[i]
			if rebuildSize(ops, flex, swapped) < cur {
				changed = true
			} else {
				swapped[i] = !swapped[i]
			}
		}
	}
}

// TestImproveOnceMatchesScanOracle drives random orientation problems —
// above the exact-search limit, with shared signals, unary and
// non-commutative ops mixed in — through the incremental sweep and the
// historical scan and requires identical final orientations.
func TestImproveOnceMatchesScanOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := exactSearchLimit + 1 + rng.Intn(60)
		sigs := 2 + rng.Intn(12)
		sig := func() string { return fmt.Sprintf("s%d", rng.Intn(sigs)) }
		ops := make([]MuxOp, n)
		var flex []int
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i] = MuxOp{A: sig()}
			case 1:
				ops[i] = MuxOp{A: sig(), B: sig()}
			default:
				ops[i] = MuxOp{A: sig(), B: sig(), Commutative: true}
				flex = append(flex, i)
			}
		}
		start := make([]bool, n)
		for _, i := range flex {
			start[i] = rng.Intn(2) == 0
		}
		want := append([]bool(nil), start...)
		improveOnceScan(ops, flex, want)
		got := append([]bool(nil), start...)
		s1, s2 := map[string]bool{}, map[string]bool{}
		improveOnce(ops, flex, s1, s2, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: orientation %d = %v, oracle %v", seed, i, got[i], want[i])
			}
		}
		if len(s1)+len(s2) != rebuildSize(ops, flex, want) {
			t.Fatalf("seed %d: rebuilt size %d, oracle %d", seed, len(s1)+len(s2), rebuildSize(ops, flex, want))
		}
	}
}

func rebuildSize(ops []MuxOp, flex []int, swapped []bool) int {
	s1, s2 := map[string]bool{}, map[string]bool{}
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
	return len(s1) + len(s2)
}

// optimizeMuxListsMap is the historical OptimizeMuxLists: the exact
// search runs on string-keyed sets, assigning and deleting map entries
// at every branch-and-bound node. It is the oracle the dense-index
// search must match list for list and orientation for orientation.
func optimizeMuxListsMap(ops []MuxOp) (l1, l2 []string, swapped []bool) {
	swapped = make([]bool, len(ops))
	set1, set2 := map[string]bool{}, map[string]bool{}
	var flex []int
	for i, op := range ops {
		switch {
		case op.B == "":
			set1[op.A] = true
		case !op.Commutative:
			set1[op.A] = true
			set2[op.B] = true
		default:
			flex = append(flex, i)
		}
	}
	if len(flex) <= exactSearchLimit {
		best := 1 << 30
		bestMask := 0
		searchMap(ops, flex, 0, 0, cloneSet(set1), cloneSet(set2), &best, &bestMask)
		for idx, i := range flex {
			swap := bestMask&(1<<idx) != 0
			swapped[i] = swap
			a, b := ops[i].A, ops[i].B
			if swap {
				a, b = b, a
			}
			set1[a] = true
			set2[b] = true
		}
	} else {
		greedyOrient(ops, flex, set1, set2, swapped)
		improveOnce(ops, flex, set1, set2, swapped)
	}
	return sortedKeys(set1), sortedKeys(set2), swapped
}

func searchMap(ops []MuxOp, flex []int, idx, mask int, s1, s2 map[string]bool, best *int, bestMask *int) {
	if size := len(s1) + len(s2); size >= *best {
		return
	}
	if idx == len(flex) {
		*best = len(s1) + len(s2)
		*bestMask = mask
		return
	}
	op := ops[flex[idx]]
	direct := addCount(s1, op.A) + addCount(s2, op.B)
	crossed := addCount(s1, op.B) + addCount(s2, op.A)
	order := []bool{false, true}
	if crossed < direct {
		order = []bool{true, false}
	}
	for _, swap := range order {
		a, b := op.A, op.B
		if swap {
			a, b = b, a
		}
		added1 := !s1[a]
		added2 := !s2[b]
		s1[a], s2[b] = true, true
		m := mask
		if swap {
			m |= 1 << idx
		}
		searchMap(ops, flex, idx+1, m, s1, s2, best, bestMask)
		if added1 {
			delete(s1, a)
		}
		if added2 {
			delete(s2, b)
		}
	}
}

func cloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// randomMuxProblem draws one ALU's operand set: nFlex commutative binary
// ops among nFixed unary and non-commutative ones, over a pool of sigs
// signals (small pools force duplicates and signals shared between the
// ports). An occasional empty first operand checks that "" is carried
// as a signal but never ranks an orientation, as in the string search.
func randomMuxProblem(rng *rand.Rand, nFlex, nFixed, sigs int) []MuxOp {
	sig := func() string { return fmt.Sprintf("s%d", rng.Intn(sigs)) }
	ops := make([]MuxOp, 0, nFlex+nFixed)
	for i := 0; i < nFlex; i++ {
		op := MuxOp{A: sig(), B: sig(), Commutative: true}
		if rng.Intn(8) == 0 {
			op.A = ""
		}
		ops = append(ops, op)
	}
	for i := 0; i < nFixed; i++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, MuxOp{A: sig()})
		case 1:
			ops = append(ops, MuxOp{A: sig(), B: sig()})
		default:
			// Commutative unary: fixed on port 1 despite the flag.
			ops = append(ops, MuxOp{A: sig(), Commutative: true})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// TestOptimizeMuxListsMatchesMapOracle drives seeded orientation
// problems — 0 to exactSearchLimit commutative ops with duplicate and
// shared signals, unary and non-commutative ops mixed in, plus large
// ALUs with hundreds of fixed signals — through the dense-index search
// and the historical string-set search and requires identical lists and
// orientations. A shared scratch (as ReoptimizeMuxes uses one) must
// give the same answers as a fresh one.
func TestOptimizeMuxListsMatchesMapOracle(t *testing.T) {
	var shared muxScratch
	check := func(name string, ops []MuxOp) {
		t.Helper()
		w1, w2, wsw := optimizeMuxListsMap(ops)
		g1, g2, gsw := OptimizeMuxLists(ops)
		s1, s2, ssw := shared.optimize(ops)
		for _, got := range []struct {
			l1, l2 []string
			sw     []bool
		}{{g1, g2, gsw}, {s1, s2, ssw}} {
			if fmt.Sprint(got.l1) != fmt.Sprint(w1) || fmt.Sprint(got.l2) != fmt.Sprint(w2) {
				t.Fatalf("%s: lists %v / %v, oracle %v / %v (ops %+v)", name, got.l1, got.l2, w1, w2, ops)
			}
			if (got.l1 == nil) != (w1 == nil) || (got.l2 == nil) != (w2 == nil) {
				t.Fatalf("%s: nil-ness of lists differs from oracle", name)
			}
			for i := range wsw {
				if got.sw[i] != wsw[i] {
					t.Fatalf("%s: orientation %d = %v, oracle %v (ops %+v)", name, i, got.sw[i], wsw[i], ops)
				}
			}
		}
	}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nFlex := int(seed) % (exactSearchLimit + 1)
		if nFlex > 12 && rng.Intn(2) == 0 {
			nFlex = rng.Intn(13) // keep most 2^16 cases for the large block below
		}
		check(fmt.Sprintf("seed %d", seed), randomMuxProblem(rng, nFlex, rng.Intn(8), 2+rng.Intn(10)))
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		// Hundreds of fixed signals, few of them shared with the flexible
		// ops, and a full exactSearchLimit of flexible ops.
		ops := randomMuxProblem(rng, 0, 300+rng.Intn(200), 400)
		for i := 0; i < exactSearchLimit; i++ {
			ops = append(ops, MuxOp{
				A:           fmt.Sprintf("s%d", rng.Intn(24)),
				B:           fmt.Sprintf("s%d", rng.Intn(24)),
				Commutative: true,
			})
		}
		check(fmt.Sprintf("large seed %d", seed), ops)
	}
	check("empty", nil)
}
