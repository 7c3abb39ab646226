package recurrent

import "testing"

var lstmShape = Shape{Hidden: 8, Input: 5, Gates: 4, First: 1, State: 2}

// TestLayerScratchGrowthOnly pins the serial arena's reuse rule: a
// smaller or equal layer (and a different input width, which sizes no
// slab) keeps the slabs, a longer one regrows them, and the two hidden
// halves never alias.
func TestLayerScratchGrowthOnly(t *testing.T) {
	sc := newLayerScratch(lstmShape, 10)
	slab := sc.wxFull
	if len(sc.a1) != 8 || len(sc.a2) != 24 || len(sc.a2s) != 3 || len(sc.states[0]) != 16 || len(sc.drs[0]) != 8 {
		t.Fatalf("slabs not carved from the shape: a1 %d a2 %d blocks %d state %d drs %d",
			len(sc.a1), len(sc.a2), len(sc.a2s), len(sc.states[0]), len(sc.drs[0]))
	}
	deeper := lstmShape
	deeper.Input = 8
	sc.reset(deeper, 4)
	if sc.wxFull != slab || sc.wx.Rows != 4 {
		t.Fatalf("shrinking reset reallocated or mis-sized wx (%d rows)", sc.wx.Rows)
	}
	a, b := sc.nextHS(), sc.nextHS()
	if len(a) != 4 || len(b) != 4 || &a[0][0] == &b[0][0] {
		t.Fatal("ping-pong halves alias or are mis-sized")
	}
	sc.reset(lstmShape, 12)
	if sc.wxFull == slab || sc.capCells != 12 {
		t.Fatal("longer layer did not regrow the arena")
	}
}

// TestBatchScratchGrowthOnly pins the batch arena's reuse rule and the
// flat offsets: member i's cell t lives at offs[i]+t.
func TestBatchScratchGrowthOnly(t *testing.T) {
	sc := newBatchScratch(lstmShape, []int{3, 5, 2})
	slab := sc.wxFull
	if sc.total != 10 || sc.offs[0] != 0 || sc.offs[1] != 3 || sc.offs[2] != 8 {
		t.Fatalf("total %d offs %v", sc.total, sc.offs)
	}
	sc.reset(lstmShape, []int{4, 4})
	if sc.wxFull != slab || sc.wx.Rows != 8 || len(sc.lens) != 2 {
		t.Fatal("smaller batch reallocated or mis-sized the arena")
	}
	if v := sc.a2View(2); v.Rows != 2 || v.Cols != 24 || len(v.Data) != 48 {
		t.Fatalf("second-stage view %dx%d over %d", v.Rows, v.Cols, len(v.Data))
	}
	sc.reset(lstmShape, []int{1, 1, 1, 1})
	if sc.wxFull == slab || sc.capMembers != 4 || sc.capTotal != 10 {
		t.Fatalf("more members did not regrow (cap %d members, %d cells)", sc.capMembers, sc.capTotal)
	}
}
