package experiments

import (
	"fmt"
	"math"
	"slices"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
	"acclaim/internal/stats"
	"acclaim/internal/traces"
)

// Fig4 reproduces Figure 4: the share of non-power-of-two message sizes
// per application and job scale, with the aggregate. Expected shape:
// ~15.7% aggregate, per-app shares stable across scales, ParaDis
// missing at 1024 nodes.
func Fig4(seed int64) ([]traces.ProfileRow, float64) {
	rows := traces.ProfileAll(seed)
	return rows, traces.AggregateNonP2(rows)
}

// Fig6Row compares test-set and training-set collection time for one
// collective under FACT.
type Fig6Row struct {
	Coll      coll.Collective
	TrainTime float64 // machine time for training data (us)
	TestTime  float64 // machine time for the 20% test set (us)
	Ratio     float64 // TestTime / TrainTime
}

// Fig6 reproduces Figure 6: the test set's collection time dwarfs the
// training data's (6–11x in the paper) because FACT needs ~1% of the
// space for training but 20% x all algorithms for testing.
func Fig6(l *Lab) ([]Fig6Row, error) {
	var out []Fig6Row
	for _, c := range coll.PaperCollectives() {
		res, err := l.factTuner(c, 0).Tune(c)
		if err != nil {
			return nil, fmt.Errorf("fig6 %v: %w", c, err)
		}
		r := Fig6Row{Coll: c, TrainTime: res.Ledger.Collection, TestTime: res.Ledger.Testing}
		if r.TrainTime > 0 {
			r.Ratio = r.TestTime / r.TrainTime
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig7Point is one training iteration of Figure 7: cumulative variance
// and average slowdown against cumulative collection time.
type Fig7Point struct {
	Time     float64
	Variance float64
	Slowdown float64
}

// Fig7 reproduces Figure 7: cumulative jackknife variance tracks
// average slowdown over training time, justifying variance as a
// test-set-free convergence proxy.
func Fig7(l *Lab, c coll.Collective) ([]Fig7Point, error) {
	tuner := l.acclaimTuner(func(cfg *core.Config) {
		cfg.Parallel = false
		cfg.Evaluator = l.Eval(l.Space.Points())
	})
	res, err := tuner.Tune(c)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	out := make([]Fig7Point, len(res.Trace))
	for i, tp := range res.Trace {
		out[i] = Fig7Point{Time: tp.CollectionTime, Variance: tp.CumVariance, Slowdown: tp.Slowdown}
	}
	return out, nil
}

// Fig9 demonstrates the Section V configuration-file generation: it
// trains ACCLAiM on the paper's collectives and lowers the models into
// a validated MPICH-style JSON rule file.
func Fig9(l *Lab) (*rules.File, error) {
	tuner := l.acclaimTuner(func(cfg *core.Config) { cfg.Parallel = false })
	results, err := tuner.TuneAll(coll.PaperCollectives())
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	return tuner.BuildRulesFile(results, "simulated-testbed")
}

// Fig10Row compares time-to-convergence of ACCLAiM's jackknife point
// selection against FACT's surrogate-driven selection for one
// collective. Curves give avg slowdown vs collection time; ConvTime is
// the first time the 1.03 criterion is met (NaN if never).
type Fig10Row struct {
	Coll        coll.Collective
	ACCLAiM     []autotune.CurvePoint
	FACT        []autotune.CurvePoint
	ACCLAiMConv float64
	FACTConv    float64
	Speedup     float64 // FACTConv / ACCLAiMConv
}

// fineFractions gives a dense x-axis for time-to-convergence curves.
func fineFractions(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) / float64(n)
	}
	return out
}

// Fig10 reproduces Figure 10: ACCLAiM's model-specific jackknife
// selections reach the convergence criterion in less collection time
// than FACT's surrogate selections (up to 2.3x in the paper, 2.25x
// cumulatively). Both tuners collect sequentially here; parallel
// collection is Figure 13's subject.
func Fig10(l *Lab, maxPoolFrac float64) ([]Fig10Row, float64, error) {
	if maxPoolFrac == 0 {
		maxPoolFrac = 0.5
	}
	fracs := fineFractions(25)
	var rows []Fig10Row
	var cumA, cumF float64
	for _, c := range coll.PaperCollectives() {
		eval := l.EvalFor(c, l.Space.Points())

		pool := len(autotune.Candidates(c, l.Space, l.Backend().MaxNodes()))
		target := int(maxPoolFrac * float64(pool))
		at := l.acclaimTuner(func(cfg *core.Config) {
			cfg.Parallel = false
			cfg.Epsilon = 1e-12
			cfg.MaxIterations = target
		})
		ares, err := at.Tune(c)
		if err != nil {
			return nil, 0, fmt.Errorf("fig10 acclaim %v: %w", c, err)
		}
		aCurve, err := at.LearningCurve(ares, fracs, eval)
		if err != nil {
			return nil, 0, err
		}

		ft := l.factTuner(c, maxPoolFrac)
		fres, err := ft.Tune(c)
		if err != nil {
			return nil, 0, fmt.Errorf("fig10 fact %v: %w", c, err)
		}
		fCurve, err := ft.LearningCurve(fres, fracs, eval)
		if err != nil {
			return nil, 0, err
		}

		row := Fig10Row{
			Coll:        c,
			ACCLAiM:     aCurve,
			FACT:        fCurve,
			ACCLAiMConv: ConvergenceTime(aCurve),
			FACTConv:    ConvergenceTime(fCurve),
		}
		if !math.IsNaN(row.ACCLAiMConv) && !math.IsNaN(row.FACTConv) && row.ACCLAiMConv > 0 {
			row.Speedup = row.FACTConv / row.ACCLAiMConv
			cumA += row.ACCLAiMConv
			cumF += row.FACTConv
		}
		rows = append(rows, row)
	}
	cum := math.NaN()
	if cumA > 0 {
		cum = cumF / cumA
	}
	return rows, cum, nil
}

// Fig12Row compares the two convergence criteria for one collective.
type Fig12Row struct {
	Coll              coll.Collective
	Trace             []autotune.TracePoint
	VarConvTime       float64 // when the cumulative-variance window fires
	SlowdownConvTime  float64 // when avg slowdown first reaches 1.03
	SlowdownAtVarConv float64 // model quality at the variance convergence
}

// Fig12 reproduces Figure 12: the cumulative-variance criterion stops
// training close to where the average-slowdown criterion would, while
// collecting no test data at all. The paper accepts variance
// convergences slightly past or before the slowdown point if the
// resulting models perform nearly equally (theirs lands at 1.04 on two
// collectives, 1.19x faster overall).
func Fig12(l *Lab) ([]Fig12Row, float64, error) {
	var rows []Fig12Row
	var sumVar, sumSlow float64
	for _, c := range coll.PaperCollectives() {
		tuner := l.acclaimTuner(func(cfg *core.Config) {
			cfg.Parallel = false
			cfg.Evaluator = l.Eval(l.Space.Points())
		})
		res, err := tuner.Tune(c)
		if err != nil {
			return nil, 0, fmt.Errorf("fig12 %v: %w", c, err)
		}
		row := Fig12Row{Coll: c, Trace: res.Trace,
			VarConvTime: math.NaN(), SlowdownConvTime: math.NaN()}
		if res.Converged {
			last := res.Trace[len(res.Trace)-1]
			row.VarConvTime = last.CollectionTime
			row.SlowdownAtVarConv = last.Slowdown
		}
		for _, tp := range res.Trace {
			if tp.Slowdown <= stats.ConvergenceCriterion {
				row.SlowdownConvTime = tp.CollectionTime
				break
			}
		}
		if !math.IsNaN(row.VarConvTime) && !math.IsNaN(row.SlowdownConvTime) {
			sumVar += row.VarConvTime
			sumSlow += row.SlowdownConvTime
		}
		rows = append(rows, row)
	}
	ratio := math.NaN()
	if sumVar > 0 {
		ratio = sumSlow / sumVar
	}
	return rows, ratio, nil
}

// Fig13Row is one (collective, topology) cell of Figure 13.
type Fig13Row struct {
	Coll           coll.Collective
	Topology       string
	SeqTime        float64
	ParTime        float64
	Speedup        float64
	MaxParallelism int
	AvgParallelism float64
}

// topologies returns the four Figure 13 layouts by name.
func topologies() map[string]cluster.Allocation {
	return map[string]cluster.Allocation{
		"Single Rack":  cluster.TopologySingleRack(),
		"Rack Pair":    cluster.TopologyRackPair(),
		"Two Pairs":    cluster.TopologyTwoPairs(),
		"Max Parallel": cluster.TopologyMaxParallel(),
	}
}

// topologyOrder gives a stable presentation order.
func topologyOrder() []string {
	return []string{"Single Rack", "Rack Pair", "Two Pairs", "Max Parallel"}
}

// Fig13 reproduces Figure 13: the training benchmarks ACCLAiM selects
// are replayed across four allocation topologies, sequentially and as
// topology-scheduled parallel waves. Expected shape: 1x on the single
// rack rising to ~1.4x with 1–4-way parallelism on scattered
// allocations.
func Fig13(l *Lab) ([]Fig13Row, error) {
	var out []Fig13Row
	for _, c := range coll.PaperCollectives() {
		// The benchmark sequence: ACCLAiM's sequential selection order.
		res, err := l.acclaimTuner(func(cfg *core.Config) { cfg.Parallel = false }).Tune(c)
		if err != nil {
			return nil, fmt.Errorf("fig13 %v: %w", c, err)
		}
		specs := make([]benchmark.Spec, len(res.Order))
		var seq float64
		for i, s := range res.Order {
			specs[i] = s.Candidate.Spec(c)
			seq += s.Wall
		}
		for _, name := range topologyOrder() {
			alloc := topologies()[name]
			rp := &dataset.Replay{DS: l.DS, Alloc: alloc, Live: l.Runner}
			_, par, err := rp.MeasureWave(specs)
			if err != nil {
				return nil, fmt.Errorf("fig13 %v on %s: %w", c, name, err)
			}
			// Recover wave sizes for the parallelism histogram.
			waves, err := planWaves(alloc, specs)
			if err != nil {
				return nil, err
			}
			maxPar, avgPar := 0, 0.0
			for _, w := range waves {
				if w > maxPar {
					maxPar = w
				}
				avgPar += float64(w)
			}
			if len(waves) > 0 {
				avgPar /= float64(len(waves))
			}
			out = append(out, Fig13Row{
				Coll: c, Topology: name,
				SeqTime: seq, ParTime: par, Speedup: seq / par,
				MaxParallelism: maxPar, AvgParallelism: avgPar,
			})
		}
	}
	return out, nil
}

// Fig14Row is one collective's production training run.
type Fig14Row struct {
	Coll        coll.Collective
	TrainTime   float64 // virtual machine time (us)
	Samples     int
	Converged   bool
	MaxWaveSize int
}

// fig14App is the application whose trace Figure 14 replays: the one
// cmd/acclaim runs when no -app is given.
const fig14App = "LAMMPS"

// Fig14 reproduces Figure 14: ACCLAiM trained live on a
// leadership-class machine (Theta-sized, best-effort allocation,
// sampled per-job environment) at production scale. Expected shape:
// convergence within minutes of machine time, not hours. nodes and
// maxPPN scale the experiment (the paper uses 128 nodes, 16 ppn); the
// job is nodes x maxPPN.
//
// It runs the pipeline that ships, as cmd/acclaim does: the
// core.Production tuner over the paper's collectives, the job-cell
// verification and rule file (core.Tuner.JobFile), and a replay of
// one application trace, filtered to the tuned collectives, under the
// file and under the library defaults. It returns one row per
// collective, the job cell's machine time, the total machine time (the
// rows' training time summed in row order, plus the cell's summed in
// the same order) and the application's measured collective speedup,
// default time over tuned time.
func Fig14(nodes, maxPPN int, seed int64) (rows []Fig14Row, cell, total, speedup float64, err error) {
	machine := cluster.Theta()
	rng := newRand(seed)
	alloc, err := cluster.BestEffort(machine, rng, nodes)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	env := netmodel.SampleEnv(rng, alloc)
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: seed})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	tuner := core.New(core.Production(featspace.ProductionSpace(nodes, maxPPN), seed),
		autotune.LiveBackend{Runner: runner})
	colls := coll.PaperCollectives()
	results, err := tuner.TuneAll(colls)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fig14: %w", err)
	}
	var tuning float64
	for _, c := range colls {
		res := results[c]
		maxWave := 0
		for _, w := range res.Parallelism {
			if w > maxWave {
				maxWave = w
			}
		}
		rows = append(rows, Fig14Row{
			Coll: c, TrainTime: res.Ledger.Collection,
			Samples: len(res.Order), Converged: res.Converged, MaxWaveSize: maxWave,
		})
		tuning += res.Ledger.Collection
	}
	file, cells, err := tuner.JobFile(results, colls, nodes, maxPPN, "theta-sim")
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fig14 job cell: %w", err)
	}
	for _, ex := range cells {
		cell += ex.Ledger.Collection
	}

	tr, err := traces.Synthesize(fig14App, nodes, seed)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	calls := slices.DeleteFunc(tr.Calls, func(call traces.Call) bool { return !slices.Contains(colls, call.Coll) })
	idx, err := ruleserver.Compile(file)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	tuned, err := runner.Replay(calls, nodes, maxPPN, idx)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fig14 replay: %w", err)
	}
	def, err := runner.Replay(calls, nodes, maxPPN, nil)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fig14 replay: %w", err)
	}
	return rows, cell, tuning + cell, def / tuned, nil
}

// Fig15Row is one speedup scenario of Figure 15.
type Fig15Row struct {
	AppSpeedup      float64 // application speedup from better selections
	MinRuntimeHours float64 // minimum app runtime to recoup training; +Inf if never
	Measured        bool    // AppSpeedup is Figure 14's replayed speedup, not an assumed one
}

// Fig15 reproduces Figure 15: the minimum application runtime R needed
// to recover a training cost T given a speedup s (core.BreakEvenHours).
// trainTimeUS is the measured total machine time (from Fig14); nil
// speedups are the assumed range 1.005–1.10.
func Fig15(trainTimeUS float64, speedups []float64) []Fig15Row {
	if speedups == nil {
		speedups = []float64{1.005, 1.01, 1.02, 1.05, 1.10}
	}
	out := make([]Fig15Row, len(speedups))
	for i, s := range speedups {
		out[i] = Fig15Row{AppSpeedup: s, MinRuntimeHours: core.BreakEvenHours(trainTimeUS, s)}
	}
	return out
}
