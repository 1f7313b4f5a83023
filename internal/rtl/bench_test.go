package rtl

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkPackRegisters(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ivals := make([]Interval, 64)
	for i := range ivals {
		birth := r.Intn(20)
		ivals[i] = Interval{Name: fmt.Sprintf("v%d", i), Birth: birth, Death: birth + 1 + r.Intn(6)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackRegisters(ivals)
	}
}

// BenchmarkOptimizeMuxListsExact times the exhaustive orientation
// search: a small ALU with heavy signal sharing, and a large one — a few
// hundred operations with fixed operands (non-commutative and unary)
// beside exactSearchLimit commutative ones, the shape of a busy shared
// ALU in a 10k-node design.
func BenchmarkOptimizeMuxListsExact(b *testing.B) {
	sigs := []string{"a", "b", "c", "d", "e"}
	r := rand.New(rand.NewSource(2))
	small := make([]MuxOp, 12)
	for i := range small {
		small[i] = MuxOp{A: sigs[r.Intn(5)], B: sigs[r.Intn(5)], Commutative: true}
	}
	var large []MuxOp
	for i := 0; i < 300; i++ {
		op := MuxOp{A: fmt.Sprintf("v%d", r.Intn(600))}
		if i%3 != 0 {
			op.B = fmt.Sprintf("v%d", r.Intn(600))
		}
		large = append(large, op)
	}
	for i := 0; i < exactSearchLimit; i++ {
		large = append(large, MuxOp{
			A:           fmt.Sprintf("v%d", r.Intn(40)),
			B:           fmt.Sprintf("v%d", 600+r.Intn(40)),
			Commutative: true,
		})
	}
	for _, c := range []struct {
		name string
		ops  []MuxOp
	}{{"small", small}, {"large-alu", large}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				OptimizeMuxLists(c.ops)
			}
		})
	}
}
