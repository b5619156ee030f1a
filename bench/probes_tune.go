package main

import (
	"time"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/netmodel"
	"acclaim/internal/sched"
	"acclaim/internal/simmpi"
	"acclaim/internal/stats"
)

// Probes time one layer directly, after the timed section of a traced
// run, on inputs the run itself produced. They say what a layer costs
// per call; the ledger says how much of the run it was.

// probeForest refits each tuning's final training matrix and scores its
// candidate pool: the per-call costs behind core.fit_s and core.score_s.
func probeForest(jobs []*tuneJob, outs []*jobOutcome, sz tuneSizes, vals map[string]float64) {
	var trainMs, compileMs, scoreNs, predictNs, rows []float64
	for i, j := range jobs {
		for _, c := range j.colls {
			res := outs[i].results[c]
			ts := autotune.NewTrainingSet(c)
			for _, s := range res.Order {
				ts.AddSample(s)
			}
			var x featspace.Matrix
			y := ts.FillMatrix(&x)
			t0 := time.Now()
			f, err := forest.TrainMatrix(forest.Config{NTrees: sz.trees, Seed: j.seed}, &x, y)
			if err != nil {
				continue
			}
			trainMs = append(trainMs, 1e3*time.Since(t0).Seconds())
			t0 = time.Now()
			k := f.Compile()
			compileMs = append(compileMs, 1e3*time.Since(t0).Seconds())
			rows = append(rows, float64(len(y)))

			cands := autotune.Candidates(c, j.space, outs[i].backend.MaxNodes())
			var pool featspace.Matrix
			pool.Reset(f.NumFeatures())
			for _, cand := range cands {
				pool.AppendPoint(cand.Point, cand.AlgIdx)
			}
			vari := make([]float64, len(cands))
			t0 = time.Now()
			k.ScoreFlat(pool.Data(), nil, vari)
			scoreNs = append(scoreNs, float64(time.Since(t0))/float64(len(cands)))
			t0 = time.Now()
			k.PredictFlat(pool.Data(), vari)
			predictNs = append(predictNs, float64(time.Since(t0))/float64(len(cands)))
		}
	}
	vals["forest.train_ms"] = median(trainMs)
	vals["forest.compile_ms"] = median(compileMs)
	vals["forest.score_ns_per_row"] = median(scoreNs)
	vals["forest.predict_ns_per_row"] = median(predictNs)
	vals["forest.train_rows"] = median(rows)
}

// probeSimulator times the layers under benchmark.Runner.Run on a fixed
// sample of the specs the run measured, and the scheduler on the
// batches it planned.
func probeSimulator(jobs []*tuneJob, outs []*jobOutcome, vals map[string]float64) error {
	const sample = 64
	var runMs, execMs, newUs, msgs, ranks, planUs []float64
	for i, j := range jobs {
		var specs []benchmark.Spec
		for _, b := range outs[i].backend.batches {
			specs = append(specs, b...)
		}
		if len(specs) == 0 {
			continue
		}
		for k := 0; k < sample/len(jobs); k++ {
			spec := specs[k*len(specs)/(sample/len(jobs))]
			t0 := time.Now()
			if _, err := j.runner.Run(spec); err != nil {
				return err
			}
			runMs = append(runMs, 1e3*time.Since(t0).Seconds())

			sub := cluster.Allocation{Machine: j.runner.Alloc.Machine, Nodes: j.runner.Alloc.Nodes[:spec.Point.Nodes]}
			t0 = time.Now()
			model, err := netmodel.NewWithTopology(j.runner.Params, j.runner.Env, sub, spec.Point.PPN, j.topo)
			if err != nil {
				return err
			}
			newUs = append(newUs, 1e6*time.Since(t0).Seconds())
			t0 = time.Now()
			res, err := coll.Exec(model, spec.Coll, spec.Alg, spec.Point.MsgBytes, coll.Options{Op: simmpi.OpSum})
			if err != nil {
				return err
			}
			execMs = append(execMs, 1e3*time.Since(t0).Seconds())
			msgs = append(msgs, float64(res.Sent))
			ranks = append(ranks, float64(spec.Point.Ranks()))
		}
		for _, b := range outs[i].backend.batches {
			t0 := time.Now()
			if _, err := sched.PlanAll(j.runner.Alloc, waveRequests(b)); err != nil {
				return err
			}
			planUs = append(planUs, 1e6*time.Since(t0).Seconds())
		}
	}
	vals["benchmark.run_ms_p50"] = median(runMs)
	vals["coll.exec_ms"] = median(execMs)
	vals["netmodel.new_us"] = median(newUs)
	vals["simmpi.msgs_per_exec"] = stats.Mean(msgs)
	vals["simmpi.ranks_per_exec"] = stats.Mean(ranks)
	vals["sched.plan_us"] = median(planUs)
	return nil
}
