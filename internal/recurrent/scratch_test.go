package recurrent

import "testing"

var lstmShape = Shape{Hidden: 8, Input: 5, Gates: 4, First: 1, FirstAt: 3, State: 2}

// TestForwardScratchGrowthOnly pins the arena's layout and reuse rule:
// members lie end to end in the flat slabs; the group slabs hold the
// largest group a step can form — one slot per member, or up to MTS per
// member under Inter — with one sub-layer state per member, or per cell
// under Inter; a pass that fits (including a different input width,
// which sizes no slab) keeps the slabs and a larger one regrows them;
// and the two hidden halves never alias.
func TestForwardScratchGrowthOnly(t *testing.T) {
	var sc forwardScratch
	sc.reset(lstmShape, RunOptions{}, 3, 5, 2)
	if sc.wx.Rows != 10 || sc.cap != (scratchSize{cells: 10, slots: 3, members: 3, states: 3}) {
		t.Fatalf("%d wx rows, capacity %+v", sc.wx.Rows, sc.cap)
	}
	for i, off := range []int{0, 3, 8} {
		if mb := sc.members[i]; mb.off != off || len(mb.tissues) != []int{3, 5, 2}[i] || len(mb.states) != 1 {
			t.Fatalf("member %d at %d with %d tissues and %d states, want offset %d", i, mb.off, len(mb.tissues), len(mb.states), off)
		}
	}
	if len(sc.gates[2]) != 8 || len(sc.drs[2]) != 8 || len(sc.operands[2]) != 8 || len(sc.states[2]) != 16 {
		t.Fatalf("group slabs not carved from the shape: gates %d drs %d operand %d state %d",
			len(sc.gates[2]), len(sc.drs[2]), len(sc.operands[2]), len(sc.states[2]))
	}
	if p := sc.product(3, 24); p.Rows != 3 || len(p.Data) != 72 {
		t.Fatalf("second-stage view %dx%d over %d", p.Rows, p.Cols, len(p.Data))
	}
	if &sc.drs[1][0] != &sc.gates[1][0] {
		t.Fatal("the DRS heads are not views of the first-stage gates")
	}

	sc.reset(lstmShape, RunOptions{Inter: true, MTS: 2}, 4, 1, 3)
	if sc.cap != (scratchSize{cells: 10, slots: 5, members: 3, states: 8}) {
		t.Fatalf("Inter capacity %+v, want MTS slots and one state per cell", sc.cap)
	}
	if mb := sc.members[2]; mb.off != 5 || len(mb.states) != 3 || &mb.subOf[0] != &sc.subOf[5] {
		t.Fatalf("Inter member at %d with %d states", mb.off, len(mb.states))
	}
	slab := &sc.wxBuf[0]

	deeper := lstmShape
	deeper.Input = 8
	sc.reset(deeper, RunOptions{}, 4, 4)
	if &sc.wxBuf[0] != slab || sc.wx.Rows != 8 || len(sc.members) != 2 || sc.members[1].tissues[3][0] != 3 {
		t.Fatalf("smaller pass reallocated or mis-sized the arena (%d rows, %d members)", sc.wx.Rows, len(sc.members))
	}
	a, b := sc.nextHS(), sc.nextHS()
	if len(a) != 8 || len(b) != 8 || &a[0][0] == &b[0][0] || &a[7][7] == &b[0][0] {
		t.Fatal("ping-pong halves alias or are mis-sized")
	}

	sc.reset(lstmShape, RunOptions{}, 1, 1, 1, 1, 7)
	if &sc.wxBuf[0] == slab || sc.cap != (scratchSize{cells: 11, slots: 5, members: 5, states: 8}) {
		t.Fatalf("a larger pass did not regrow to the union of both (capacity %+v)", sc.cap)
	}
}
