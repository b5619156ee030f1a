package experiments

import (
	"fmt"
	"math"

	"acclaim/internal/autotune"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/fact"
	"acclaim/internal/featspace"
	"acclaim/internal/hunold"
	"acclaim/internal/stats"
)

// defaultFractions is the training-data-fraction axis of the learning
// curve figures (3, 5, 11), as shares of the candidate pool.
var defaultFractions = []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.60}

// hunoldTuner builds the Hunold baseline over the lab.
func (l *Lab) hunoldTuner() *hunold.Tuner {
	return hunold.New(hunold.Config{
		Space:  l.Space,
		Forest: l.ForestConfig,
		Seed:   l.Seed + 100,
	}, l.Backend())
}

// factTuner builds the FACT baseline. maxPoolFrac, when positive, caps
// training collection at that share of the candidate pool and disables
// convergence, producing a full selection order for learning curves.
func (l *Lab) factTuner(c coll.Collective, maxPoolFrac float64) *fact.Tuner {
	cfg := fact.Config{
		Space:  l.Space,
		Forest: l.ForestConfig,
		Seed:   l.Seed + 200,
	}
	if maxPoolFrac > 0 {
		pool := len(autotune.Candidates(c, l.Space, l.Backend().MaxNodes()))
		cfg.MaxPoints = int(maxPoolFrac * float64(pool))
		cfg.Criterion = 1.0 // unreachable: collect the full order
		cfg.CheckEvery = 50 // convergence checks are pointless here
	}
	return fact.New(cfg, l.Backend())
}

// acclaimTuner builds an ACCLAiM tuner. Sequential by default (batch
// collection is evaluated separately in Figure 13).
func (l *Lab) acclaimTuner(mutate func(*core.Config)) *core.Tuner {
	cfg := core.Config{
		Space:  l.Space,
		Forest: l.ForestConfig,
		Seed:   l.Seed + 300,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg, l.Backend())
}

// Fig3Row is one x-position of Figure 3: average slowdown of the two
// prior-work autotuners at a training-data fraction, aggregated over
// the four collectives.
type Fig3Row struct {
	Fraction float64
	Hunold   float64
	FACT     float64
}

// Fig3 reproduces Figure 3 (Hunold et al. vs FACT data efficiency).
// Expected shape: FACT stays below the 1.03 convergence criterion with
// far less training data than Hunold's random sampling needs.
func Fig3(l *Lab, fracs []float64) ([]Fig3Row, error) {
	if fracs == nil {
		fracs = defaultFractions
	}
	maxFrac := fracs[len(fracs)-1]
	sums := make([]Fig3Row, len(fracs))
	for i := range sums {
		sums[i].Fraction = fracs[i]
	}
	for _, c := range coll.PaperCollectives() {
		eval := l.EvalFor(c, l.Space.Points())

		hCurve, err := l.hunoldTuner().LearningCurve(c, fracs, eval)
		if err != nil {
			return nil, fmt.Errorf("fig3 hunold %v: %w", c, err)
		}
		ft := l.factTuner(c, maxFrac)
		fres, err := ft.Tune(c)
		if err != nil {
			return nil, fmt.Errorf("fig3 fact %v: %w", c, err)
		}
		// FACT's order covers maxFrac of the pool; rescale pool
		// fractions to order fractions.
		orderFracs := make([]float64, len(fracs))
		for i, f := range fracs {
			orderFracs[i] = math.Min(f/maxFrac, 1)
		}
		fCurve, err := ft.LearningCurve(fres, orderFracs, eval)
		if err != nil {
			return nil, fmt.Errorf("fig3 fact curve %v: %w", c, err)
		}
		if len(hCurve) != len(fracs) || len(fCurve) != len(fracs) {
			return nil, fmt.Errorf("fig3 %v: curve lengths %d/%d, want %d", c, len(hCurve), len(fCurve), len(fracs))
		}
		for i := range fracs {
			sums[i].Hunold += hCurve[i].Slowdown
			sums[i].FACT += fCurve[i].Slowdown
		}
	}
	n := float64(len(coll.PaperCollectives()))
	for i := range sums {
		sums[i].Hunold /= n
		sums[i].FACT /= n
	}
	return sums, nil
}

// Fig5Series is one curve of Figure 5: FACT's bcast slowdown on a test
// set as a function of training data (always P2-only training).
type Fig5Series struct {
	TestSet string
	Curve   []autotune.CurvePoint
}

// Fig5 reproduces Figure 5 (FACT on P2 and non-P2 test sets,
// MPI_Bcast). Expected shape: "All P2" near-optimal with enough data;
// "Non-P2 Nodes" the correct shape at a higher level; "Non-P2 Message
// Size" substantially worse everywhere — the model cannot learn trends
// it never saw.
func Fig5(l *Lab, fracs []float64) ([]Fig5Series, error) {
	if fracs == nil {
		fracs = defaultFractions
	}
	const c = coll.Bcast
	maxFrac := fracs[len(fracs)-1]
	ft := l.factTuner(c, maxFrac)
	res, err := ft.Tune(c)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	orderFracs := make([]float64, len(fracs))
	for i, f := range fracs {
		orderFracs[i] = math.Min(f/maxFrac, 1)
	}
	sets := []struct {
		name string
		pts  []featspace.Point
	}{
		{"All P2", l.Space.Points()},
		{"Non-P2 Nodes", l.NonP2Nodes},
		{"Non-P2 Message Size", l.NonP2Msgs},
	}
	var out []Fig5Series
	for _, set := range sets {
		curve, err := ft.LearningCurve(res, orderFracs, l.EvalFor(c, set.pts))
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", set.name, err)
		}
		// Report pool fractions on the x-axis.
		for i := range curve {
			curve[i].Fraction = fracs[i]
		}
		out = append(out, Fig5Series{TestSet: set.name, Curve: curve})
	}
	return out, nil
}

// Fig11Series is one training-data split of Figure 11: ACCLAiM's bcast
// slowdown on the P2 and non-P2-message test sets.
type Fig11Series struct {
	Split      string
	NonP2Every int
	P2Curve    []autotune.CurvePoint
	NonP2Curve []autotune.CurvePoint
}

// Fig11 reproduces Figure 11 (non-P2 training data incorporation).
// Expected shape: all-P2 training fails on the non-P2 test set; the
// 50-50 split fixes non-P2 at the cost of P2 accuracy; the 80-20 split
// (every 5th point) keeps both low — the "Goldilocks" balance.
func Fig11(l *Lab, fracs []float64) ([]Fig11Series, error) {
	if fracs == nil {
		fracs = defaultFractions
	}
	const c = coll.Bcast
	pool := len(autotune.Candidates(c, l.Space, l.Backend().MaxNodes()))
	maxFrac := fracs[len(fracs)-1]
	target := int(maxFrac * float64(pool))

	splits := []struct {
		name  string
		every int
	}{
		{"All P2", -1},
		{"50-50", 2},
		{"80-20 (ACCLAiM)", 5},
	}
	var out []Fig11Series
	for _, sp := range splits {
		tuner := l.acclaimTuner(func(cfg *core.Config) {
			cfg.NonP2Every = sp.every
			cfg.Epsilon = 1e-12 // never converge: collect the whole order
			cfg.MaxIterations = target
		})
		res, err := tuner.Tune(c)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", sp.name, err)
		}
		p2Curve, err := tuner.LearningCurve(res, fracsToOrder(fracs, maxFrac), l.EvalFor(c, l.Space.Points()))
		if err != nil {
			return nil, err
		}
		npCurve, err := tuner.LearningCurve(res, fracsToOrder(fracs, maxFrac), l.EvalFor(c, l.NonP2Msgs))
		if err != nil {
			return nil, err
		}
		for i := range p2Curve {
			p2Curve[i].Fraction = fracs[i]
			npCurve[i].Fraction = fracs[i]
		}
		out = append(out, Fig11Series{Split: sp.name, NonP2Every: sp.every, P2Curve: p2Curve, NonP2Curve: npCurve})
	}
	return out, nil
}

func fracsToOrder(fracs []float64, maxFrac float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = math.Min(f/maxFrac, 1)
	}
	return out
}

// ConvergenceTime returns the collection time at which a slowdown curve
// first reaches the convergence criterion, or NaN if it never does.
func ConvergenceTime(curve []autotune.CurvePoint) float64 {
	for _, p := range curve {
		if p.Slowdown <= stats.ConvergenceCriterion {
			return p.CollectionTime
		}
	}
	return math.NaN()
}
