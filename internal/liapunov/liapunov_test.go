package liapunov

import (
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestTimeConstrainedOrdering(t *testing.T) {
	// The defining property of §3.1: the LAST FU of step t is cheaper than
	// the FIRST FU of step t+1.
	n := 7
	f := TimeConstrained{N: n}
	for step := 1; step < 10; step++ {
		last := f.Value(grid.Pos{Step: step, Index: n})
		first := f.Value(grid.Pos{Step: step + 1, Index: 1})
		if last >= first {
			t.Fatalf("step %d: V(last fu)=%v not < V(next step first fu)=%v", step, last, first)
		}
	}
}

func TestResourceConstrainedOrdering(t *testing.T) {
	// Dual property: the LAST step on FU i is cheaper than step 1 on FU i+1.
	cs := 9
	f := ResourceConstrained{CS: cs}
	for idx := 1; idx < 6; idx++ {
		last := f.Value(grid.Pos{Step: cs, Index: idx})
		next := f.Value(grid.Pos{Step: 1, Index: idx + 1})
		if last >= next {
			t.Fatalf("fu %d: V(last step)=%v not < V(new fu)=%v", idx, last, next)
		}
	}
}

func TestProperties(t *testing.T) {
	if err := CheckProperties(TimeConstrained{N: 5}, 12, 5); err != nil {
		t.Error(err)
	}
	if err := CheckProperties(ResourceConstrained{CS: 12}, 12, 5); err != nil {
		t.Error(err)
	}
}

// badFunc violates positivity at (1,1).
type badFunc struct{}

func (badFunc) Value(p grid.Pos) float64 { return float64(p.Step) - 1 }
func (badFunc) Name() string             { return "bad" }

// flatFunc is constant, violating strict decrease.
type flatFunc struct{}

func (flatFunc) Value(p grid.Pos) float64 {
	if p == (grid.Pos{}) {
		return 0
	}
	return 1
}
func (flatFunc) Name() string { return "flat" }

// offsetFunc violates V(equilibrium)=0.
type offsetFunc struct{}

func (offsetFunc) Value(p grid.Pos) float64 { return 1 + float64(p.Step+p.Index) }
func (offsetFunc) Name() string             { return "offset" }

func TestCheckPropertiesRejects(t *testing.T) {
	if err := CheckProperties(badFunc{}, 3, 3); err == nil {
		t.Error("non-positive function accepted")
	}
	if err := CheckProperties(flatFunc{}, 3, 3); err == nil {
		t.Error("flat function accepted")
	}
	if err := CheckProperties(offsetFunc{}, 3, 3); err == nil {
		t.Error("offset function accepted")
	}
}

func TestMovePropertyQuick(t *testing.T) {
	// Property (2) of the theorem: x' < x and y' < y implies V' < V, for
	// both static functions.
	fT := TimeConstrained{N: 10}
	fR := ResourceConstrained{CS: 20}
	prop := func(x, y, dx, dy uint8) bool {
		p := grid.Pos{Step: int(y%20) + 2, Index: int(x%10) + 2}
		q := grid.Pos{Step: p.Step - int(dy%uint8(p.Step-1)) - 1, Index: p.Index - int(dx%uint8(p.Index-1)) - 1}
		return fT.Value(q) < fT.Value(p) && fR.Value(q) < fR.Value(p)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestGridOrder certifies the Ordered capability: where GridOrder
// reports ok, the claimed scan order must visit every grid position in
// strictly increasing energy; where the parameter constraint fails, the
// capability must be withdrawn.
func TestGridOrder(t *testing.T) {
	scan := func(cs, max int, ord grid.Order) []grid.Pos {
		ps := make([]grid.Pos, 0, cs*max)
		if ord == grid.RowMajor {
			for s := 1; s <= cs; s++ {
				for i := 1; i <= max; i++ {
					ps = append(ps, grid.Pos{Step: s, Index: i})
				}
			}
		} else {
			for i := 1; i <= max; i++ {
				for s := 1; s <= cs; s++ {
					ps = append(ps, grid.Pos{Step: s, Index: i})
				}
			}
		}
		return ps
	}
	cases := []struct {
		f       Ordered
		cs, max int
		wantOrd grid.Order
		wantOK  bool
	}{
		{TimeConstrained{N: 6}, 10, 5, grid.RowMajor, true},
		{TimeConstrained{N: 5}, 10, 5, grid.RowMajor, false}, // N not > max
		{ResourceConstrained{CS: 11}, 10, 5, grid.ColMajor, true},
		{ResourceConstrained{CS: 10}, 10, 5, grid.ColMajor, false}, // CS not > cs
	}
	for _, c := range cases {
		ord, ok := c.f.GridOrder(c.cs, c.max)
		if ord != c.wantOrd || ok != c.wantOK {
			t.Errorf("%s.GridOrder(%d,%d) = (%v,%v), want (%v,%v)",
				c.f.Name(), c.cs, c.max, ord, ok, c.wantOrd, c.wantOK)
		}
		if !ok {
			continue
		}
		ps := scan(c.cs, c.max, ord)
		for i := 1; i < len(ps); i++ {
			if c.f.Value(ps[i-1]) >= c.f.Value(ps[i]) {
				t.Fatalf("%s: scan order not strictly increasing at %v -> %v",
					c.f.Name(), ps[i-1], ps[i])
			}
		}
	}
	// Static functions implement the capability.
	var _ Ordered = TimeConstrained{}
	var _ Ordered = ResourceConstrained{}
}

func TestDominanceConstant(t *testing.T) {
	c := DominanceConstant(16000, 300, 1400)
	// The §4.1 inequality: C·(y+1) + mins > C·y + maxes, i.e. C > sum of
	// maxima (minima are zero).
	if !(c > 16000+300+1400) {
		t.Errorf("C = %v too small", c)
	}
	// Time dominance in action: step t with all worst-case hardware beats
	// step t+1 with free hardware.
	y := 3.0
	worst := c*y + 16000 + 300 + 1400
	nextFree := c * (y + 1)
	if !(worst < nextFree) {
		t.Errorf("time dominance broken: %v >= %v", worst, nextFree)
	}
}
