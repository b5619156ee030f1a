package forest

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzTrainDifferential proves the compiled histogram trainer is
// bit-identical to the reference builder: for arbitrary
// hyperparameters and data (derived deterministically from the fuzzed
// inputs), trainReference and TrainMatrix must produce node-for-node
// equal forests — and TrainMatrix must produce that same forest at
// every worker count. This is the training-side mirror of
// FuzzCompiledDifferential, and the proof obligation behind the
// trainer being TrainMatrix's only path.
//
// layout%3 picks the data: 2-5 continuous columns; 2-5 columns of four
// values each, which flood nodes with ties; or the tuner's 7-column
// layout (see fuzzTunerRow), where one column is constant at the root
// and the low-cardinality ones go constant a few levels down — the
// trainer's constant-feature and leaf-pair skips. Depth reaches the
// production default of 14.
//
// Seeded corpus below; CI runs this target for 30s per push (the
// fuzz-smoke job).
func FuzzTrainDifferential(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(1), uint8(40), uint8(0))
	f.Add(int64(9), uint8(6), uint8(3), uint8(2), uint8(90), uint8(1)) // tie-heavy, MTry<nf
	f.Add(int64(-5), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1)) // single stump, 2 samples
	f.Add(int64(77), uint8(5), uint8(6), uint8(9), uint8(70), uint8(0))
	f.Add(int64(3), uint8(7), uint8(13), uint8(0), uint8(119), uint8(0))  // depth 14, continuous
	f.Add(int64(12), uint8(3), uint8(13), uint8(0), uint8(119), uint8(2)) // depth 14, tuner layout
	f.Add(int64(-8), uint8(5), uint8(9), uint8(1), uint8(60), uint8(2))   // tuner layout, MTry<nf
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, minLeaf, nSamples, layout uint8) {
		nt := int(nTrees)%8 + 1
		md := int(depth)%14 + 1
		ml := int(minLeaf)%5 + 1
		ns := int(nSamples)%120 + 1
		mode := layout % 3
		nf := int(seed&3) + 2 // 2-5 features
		if mode == 2 {
			nf = 7
		}
		mtry := (int(seed>>2)%nf+nf)%nf + 1 // 1..nf, negative seeds included

		rng := rand.New(rand.NewSource(seed))
		var card [7]int
		if mode == 2 {
			card = [7]int{2 + rng.Intn(5), 2 + rng.Intn(3), 0, 0, 0, 0, 2 + rng.Intn(5)}
		}
		x := make([][]float64, ns)
		y := make([]float64, ns)
		for i := range x {
			row := make([]float64, nf)
			switch mode {
			case 0:
				for j := range row {
					row[j] = rng.NormFloat64() * 10
				}
			case 1:
				for j := range row {
					row[j] = float64(rng.Intn(4)) // heavy ties exercise stable order
				}
			default:
				fuzzTunerRow(rng, &card, row)
			}
			x[i] = row
			if mode == 2 {
				// Message size scaled per algorithm, plus a rank term: the
				// crossover structure the tuner's forest learns.
				y[i] = row[2]*(1+0.3*row[6]) - row[3] + rng.NormFloat64()
			} else {
				y[i] = row[0] - row[1%nf]*0.5 + rng.NormFloat64()
			}
		}

		cfg := Config{NTrees: nt, MaxDepth: md, MinLeaf: ml, MTry: mtry, Seed: seed, Workers: 1}
		want := trainReference(cfg, x, y)
		for _, workers := range []int{1, 2, 5, 13} {
			c := cfg
			c.Workers = workers
			got, err := trainRows(c, x, y)
			if err != nil {
				t.Fatalf("training the compiled forest (workers=%d): %v", workers, err)
			}
			if !forestsIdentical(want, got) {
				t.Fatalf("compiled trainer differs from reference builder at Workers=%d (nt=%d md=%d ml=%d mtry=%d ns=%d nf=%d layout=%d)",
					workers, nt, md, ml, mtry, ns, nf, mode)
			}
		}
	})
}

// fuzzTunerRow fills a 7-column row shaped like featspace.Features on a
// power-of-two grid: nodes and ppn with card[0] and card[1] values,
// log2(msg) over 18 sizes, log2(ranks) derived from the first two,
// p2frac(msg) mostly zero, p2frac(nodes) constant zero, and an
// algorithm index with card[6] values.
func fuzzTunerRow(rng *rand.Rand, card *[7]int, row []float64) {
	ln := rng.Intn(card[0])
	lp := rng.Intn(card[1])
	row[0] = float64(int(1) << ln)
	row[1] = float64(int(1) << lp)
	row[2] = float64(3 + rng.Intn(18))
	row[3] = float64(ln + lp)
	if rng.Intn(4) == 0 {
		row[4] = 0.5
	}
	row[5] = 0
	row[6] = float64(rng.Intn(card[6]))
}

// FuzzCompiledDifferential proves Forest.Compile is observationally
// identical to the reference pointer-walk path: for an arbitrary
// trained forest (hyperparameters and data derived deterministically
// from the fuzzed inputs) and an arbitrary query batch, NaN and ±Inf
// values included, the kernel's Predict / PredictFlat / ScoreFlat must
// reproduce the per-row walk over the reference builder's raw trees
// (treeScores over trainRaw's copies) bit for bit. Two Workers settings are compared per
// input — trained forests are bit-identical across worker counts, so
// the pair also pins kernel results to be worker-independent. Shapes
// deliberately sweep the degenerate corners: single trees, pure-leaf
// trees (constant targets), empty batches, and batches straddling the
// blockQ tile boundary.
//
// Seeded corpus below; CI runs this target for 30s per push (the
// fuzz-smoke job).
func FuzzCompiledDifferential(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(40), uint8(10), false)
	f.Add(int64(7), uint8(1), uint8(6), uint8(80), uint8(130), false) // NTrees=1, nq > blockQ
	f.Add(int64(42), uint8(8), uint8(1), uint8(30), uint8(65), true)  // stumps on constant target
	f.Add(int64(-3), uint8(3), uint8(5), uint8(50), uint8(0), false)  // empty batch
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, nSamples, nQueries uint8, constant bool) {
		nt := int(nTrees)%8 + 1
		md := int(depth)%6 + 1
		ns := int(nSamples)%100 + 2
		nq := int(nQueries) % 160
		nf := int(seed&3) + 2 // 2-5 features

		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, ns)
		y := make([]float64, ns)
		for i := range x {
			row := make([]float64, nf)
			for j := range row {
				row[j] = rng.NormFloat64() * 10
			}
			x[i] = row
			if constant {
				y[i] = 3.25 // pure-leaf trees: every split collapses
			} else {
				y[i] = row[0]*row[1%nf] + rng.NormFloat64()
			}
		}
		qs := specialQueries(rng, nq, nf)

		cfg := Config{NTrees: nt, MaxDepth: md, Seed: seed, Workers: 1}
		ref, err := trainRows(cfg, x, y)
		if err != nil {
			t.Fatalf("training the reference forest: %v", err)
		}
		cfg.Workers = int(nQueries)%4 + 1
		alt, err := trainRows(cfg, x, y) // bit-identical forest, different pool size
		if err != nil {
			t.Fatalf("training the alternate forest: %v", err)
		}

		// The oracle is the reference builder's raw trees, which share
		// no code with the packed layout; the unpacked walk must agree.
		_, raw := trainRaw(cfg, x, y)
		wantP, wantV := treeScores(raw, qs)
		if p, v := oracleScores(ref, qs); !slices.Equal(p, wantP) || !slices.Equal(v, wantV) {
			t.Fatalf("unpacked trees score (%v, %v), raw builder trees (%v, %v)", p, v, wantP, wantV)
		}
		flat := flatten(qs)
		for _, k := range []*Kernel{ref.Compile(), alt.Compile()} {
			gotP := make([]float64, nq)
			gotV := make([]float64, nq)
			k.ScoreFlat(flat, gotP, gotV)
			predP := make([]float64, nq)
			k.PredictFlat(flat, predP)
			for i := range qs {
				if gotP[i] != wantP[i] || predP[i] != wantP[i] {
					t.Fatalf("mean[%d]: ScoreFlat %v, PredictFlat %v != reference %v (workers=%d)", i, gotP[i], predP[i], wantP[i], cfg.Workers)
				}
				if gotV[i] != wantV[i] {
					t.Fatalf("variance[%d]: ScoreFlat %v != reference %v (workers=%d)", i, gotV[i], wantV[i], cfg.Workers)
				}
			}
			for i := 0; i < nq && i < 5; i++ {
				if got, want := k.Predict(qs[i]), ref.Predict(qs[i]); got != want {
					t.Fatalf("Predict[%d]: kernel %v != reference %v", i, got, want)
				}
			}
		}
	})
}
