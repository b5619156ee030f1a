package featspace

import "testing"

func TestMatrixAppendPointAndRow(t *testing.T) {
	var m Matrix
	m.Reset(NumFeatures)
	pt := Point{Nodes: 8, PPN: 4, MsgBytes: 1024}
	m.AppendPoint(pt, 2)
	m.AppendRow(Features(pt, 3)...)
	if m.Rows() != 2 || m.Cols() != NumFeatures {
		t.Fatalf("matrix shape %dx%d, want 2x%d", m.Rows(), m.Cols(), NumFeatures)
	}
	row0, row1 := m.Data()[:NumFeatures], m.Data()[NumFeatures:]
	for j, v := range Features(pt, 2) {
		if row0[j] != v {
			t.Errorf("row 0 col %d = %v, want %v", j, row0[j], v)
		}
	}
	if row1[NumFeatures-1] != 3 {
		t.Errorf("row 1 alg index = %v, want 3", row1[NumFeatures-1])
	}
}

func TestMatrixAppendRowFixesWidth(t *testing.T) {
	var m Matrix
	m.AppendRow(1, 2, 3) // first append fixes cols=3
	if m.Cols() != 3 || m.Rows() != 1 {
		t.Fatalf("shape %dx%d after first AppendRow", m.Rows(), m.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Error("width-mismatched AppendRow should panic")
		}
	}()
	m.AppendRow(1, 2)
}

func TestMatrixCol(t *testing.T) {
	var m Matrix
	m.AppendRow(1, 10)
	m.AppendRow(2, 20)
	m.AppendRow(3, 30)
	dst := make([]float64, 3)
	m.Col(1, dst)
	for i, want := range []float64{10, 20, 30} {
		if dst[i] != want {
			t.Errorf("Col(1)[%d] = %v, want %v", i, dst[i], want)
		}
	}
	for _, bad := range []func(){
		func() { m.Col(2, dst) },
		func() { m.Col(-1, dst) },
		func() { m.Col(0, dst[:2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range Col should panic")
				}
			}()
			bad()
		}()
	}
}

func TestMatrixSetColAndReset(t *testing.T) {
	var m Matrix
	m.AppendRow(1, 5)
	m.AppendRow(2, 5)
	m.SetCol(1, 9)
	if d := m.Data(); d[1] != 9 || d[3] != 9 {
		t.Error("SetCol did not overwrite the column")
	}
	m.Reset(4)
	if m.Rows() != 0 || m.Cols() != 4 {
		t.Errorf("Reset left shape %dx%d", m.Rows(), m.Cols())
	}
}
