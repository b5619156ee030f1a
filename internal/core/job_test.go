package core

import (
	"strings"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/obs"
)

// cellStub is a wave backend on which every collective's second
// registered algorithm is the fastest everywhere. It records each batch
// it is sent.
type cellStub struct {
	batches [][]benchmark.Spec
}

func (s *cellStub) MaxNodes() int { return 16 }

func (s *cellStub) Measure(spec benchmark.Spec) (benchmark.Measurement, error) {
	ms, _, err := s.MeasureWave([]benchmark.Spec{spec})
	return ms[0], err
}

func (s *cellStub) MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error) {
	s.batches = append(s.batches, specs)
	out := make([]benchmark.Measurement, len(specs))
	var total float64
	for i, spec := range specs {
		mean := stubMean(spec)
		out[i] = benchmark.Measurement{Spec: spec, MeanTime: mean, WallTime: 7 * mean}
		total = max(total, out[i].WallTime)
	}
	return out, total, nil
}

// stubMean is cellStub's mean time for spec.
func stubMean(spec benchmark.Spec) float64 {
	if spec.Alg == coll.AlgorithmNames(spec.Coll)[1] {
		return 1
	}
	return 10
}

// firstAlgModel trains a model on data where the collective's first
// registered algorithm wins at every grid point.
func firstAlgModel(t *testing.T, c coll.Collective, space featspace.Space) *autotune.Model {
	t.Helper()
	ts := autotune.NewTrainingSet(c)
	for _, p := range space.Points() {
		for i, alg := range coll.AlgorithmNames(c) {
			mean := 10.0
			if i == 0 {
				mean = 1
			}
			ts.Add(autotune.Candidate{Point: p, Alg: alg, AlgIdx: i}, mean, mean)
		}
	}
	m, err := autotune.TrainModel(forest.Config{NTrees: 10, Seed: 1}, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestJobFileOverridesModelAtCell pins JobFile's override policy: the
// file answers the cell's measured winner at the job's (nodes, ppn) and
// the model's selection everywhere else. It also pins the batches (one
// per collective, in list order, over the cell only), the ledgers and
// the two root spans.
func TestJobFileOverridesModelAtCell(t *testing.T) {
	const nodes, ppn = 8, 2
	space := testSpace()
	colls := []coll.Collective{coll.Allreduce, coll.Bcast} // not registry order
	results := make(map[coll.Collective]*Result, len(colls))
	for _, c := range colls {
		results[c] = &Result{Coll: c, Model: firstAlgModel(t, c, space)}
	}
	stub := &cellStub{}
	trace := obs.NewTrace()
	tuner := New(Config{Space: space, Recorder: trace}, stub)

	file, cells, err := tuner.JobFile(results, colls, nodes, ppn, "stub")
	if err != nil {
		t.Fatal(err)
	}

	if len(stub.batches) != len(colls) || len(cells) != len(colls) {
		t.Fatalf("%d batches and %d cell results for %d collectives", len(stub.batches), len(cells), len(colls))
	}
	for i, c := range colls {
		batch := stub.batches[i]
		if want := len(space.Msgs) * coll.NumAlgorithms(c); len(batch) != want {
			t.Errorf("batch %d has %d specs, want %d", i, len(batch), want)
		}
		var charged float64
		for _, spec := range batch {
			if spec.Coll != c || spec.Point.Nodes != nodes || spec.Point.PPN != ppn {
				t.Errorf("batch %d (%v) holds %v", i, c, spec)
			}
			charged += 7 * stubMean(spec)
		}
		if cells[i].Coll != c || cells[i].Ledger.Collection != charged {
			t.Errorf("cell %d: %v charged %v, want %v charged %v", i, cells[i].Coll, cells[i].Ledger.Collection, c, charged)
		}
	}

	for _, c := range colls {
		tab := file.Tables[c.String()]
		if tab == nil {
			t.Fatalf("no table for %v", c)
		}
		measured := coll.AlgorithmNames(c)[1]
		for _, p := range space.Points() {
			got, err := tab.Select(p.Nodes, p.PPN, p.MsgBytes)
			if err != nil {
				t.Fatal(err)
			}
			want := results[c].Model.Select(p)
			if p.Nodes == nodes && p.PPN == ppn {
				if want == measured {
					t.Fatalf("%v at %v: the model already picks the measured winner %q; the test shows nothing", c, p, want)
				}
				want = measured
			}
			if got != want {
				t.Errorf("%v at %v: file selects %q, want %q", c, p, got, want)
			}
		}
	}

	var roots []string
	for _, s := range trace.Spans() {
		if s.Parent != obs.NoSpan || s.EndNs < s.StartNs {
			t.Errorf("span %q: parent %d, start %d, end %d; want an ended root span", s.Name, s.Parent, s.StartNs, s.EndNs)
		}
		roots = append(roots, s.Name)
	}
	if got := strings.Join(roots, ","); got != "exhaustive.cell,rules.build" {
		t.Errorf("spans %s, want exhaustive.cell,rules.build", got)
	}
}

func TestJobFileErrors(t *testing.T) {
	space := testSpace()
	results := map[coll.Collective]*Result{coll.Bcast: {Coll: coll.Bcast, Model: firstAlgModel(t, coll.Bcast, space)}}
	for _, tc := range []struct {
		name    string
		backend autotune.Backend
		colls   []coll.Collective
		want    string
	}{
		{"no wave backend", struct{ autotune.Backend }{&cellStub{}}, []coll.Collective{coll.Bcast}, "wave backend"},
		{"untuned collective", &cellStub{}, []coll.Collective{coll.Bcast, coll.Reduce}, "no tuning result for reduce"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := New(Config{Space: space}, tc.backend).JobFile(results, tc.colls, 8, 2, "stub")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("JobFile = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
