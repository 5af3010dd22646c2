package matrix

import "testing"

func TestAtSetRow(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 0.5)
	if got := m.At(1, 2); got != 0.5 {
		t.Fatalf("At(1,2) = %v after Set", got)
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 0.5 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[3] = 0.75 // row aliases the backing store
	if got := m.At(1, 3); got != 0.75 {
		t.Fatalf("write through Row not visible: At(1,3) = %v", got)
	}
	// Rows are capacity-clipped: an append must not clobber row 2.
	_ = append(row, 99)
	if got := m.At(2, 0); got != 0 {
		t.Fatalf("append through Row bled into next row: %v", got)
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	n := New(2, 2)
	n.Set(0, 0, 1)
	n.Set(0, 1, 2)
	n.Set(1, 0, 3)
	n.Set(1, 1, 4)
	if !m.Equal(n) {
		t.Fatal("FromRows result differs from Set-built matrix")
	}
	n.Set(1, 1, 5)
	if m.Equal(n) {
		t.Fatal("Equal missed a differing cell")
	}
	if m.Equal(New(2, 3)) {
		t.Fatal("Equal ignored shape mismatch")
	}
}

func TestZeroCloneMaxAbsDiff(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, 4}})
	c := m.Clone()
	m.Zero()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("Zero left %v at %d,%d", m.At(i, j), i, j)
			}
		}
	}
	if c.At(1, 1) != 4 {
		t.Fatal("Clone shares backing store with original")
	}
	if d := c.MaxAbsDiff(m); d != 4 {
		t.Fatalf("MaxAbsDiff = %v, want 4", d)
	}
}

func TestEmpty(t *testing.T) {
	var zero Matrix
	if !zero.Empty() {
		t.Fatal("zero value must be Empty")
	}
	if New(2, 2).Empty() {
		t.Fatal("2x2 matrix reported Empty")
	}
}

func TestReshapeReusesAndClears(t *testing.T) {
	big := New(4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			big.Set(i, j, 1)
		}
	}
	small := big.Reshape(3, 2)
	if small.Rows() != 3 || small.Cols() != 2 || small.Cap() != big.Cap() {
		t.Fatalf("Reshape(3, 2) = %dx%d cap %d, want 3x2 over the 20-cell store", small.Rows(), small.Cols(), small.Cap())
	}
	if !small.Equal(New(3, 2)) {
		t.Fatalf("Reshape left stale cells: %v", small.Row(0))
	}
	small.Set(0, 0, 7)
	if big.At(0, 0) != 7 {
		t.Fatal("Reshape within capacity does not alias the backing store")
	}
	grown := small.Reshape(5, 5)
	if grown.Cap() != 25 || !grown.Equal(New(5, 5)) {
		t.Fatalf("Reshape past capacity: cap %d, want a fresh zeroed 25-cell store", grown.Cap())
	}
	if z := (Matrix{}).Reshape(2, 3); z.Rows() != 2 || z.Cols() != 3 || !z.Equal(New(2, 3)) {
		t.Fatal("the zero Matrix does not reshape like New")
	}
}
