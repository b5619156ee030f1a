// Package coll implements MPICH collective algorithms over the simmpi
// virtual-time runtime. The core set is the ten algorithms studied in
// the ACCLAiM paper across the four most popular collectives on
// production systems (Chunduri et al.): MPI_Allgather, MPI_Allreduce,
// MPI_Bcast, and MPI_Reduce. The scenario-diversity extension adds
// MPI_Alltoall, MPI_Reduce_scatter, MPI_Gather, and MPI_Scatter with
// their standard MPICH schedules, registered through the same seams so
// every autotuner picks them up without special cases.
//
// Every algorithm is written once against the simmpi virtual-time
// runtime and therefore yields both a simulated execution time and real
// data movement that the package verifies against a reference result —
// the same implementation is used by the correctness tests (with data)
// and the benchmark sweeps (timing only).
package coll

import (
	"errors"
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// Collective identifies one MPI collective operation.
type Collective int

// The paper's four collectives first, in its alphabetical presentation
// order, then the scenario-diversity additions. Only append here: the
// enum value is baked into dense per-collective arrays and saved
// datasets, so reordering would silently remap them.
const (
	Allgather Collective = iota
	Allreduce
	Bcast
	Reduce
	Alltoall
	ReduceScatter
	Gather
	Scatter
	numCollectives
)

// String implements fmt.Stringer using MPI naming.
func (c Collective) String() string {
	switch c {
	case Allgather:
		return "allgather"
	case Allreduce:
		return "allreduce"
	case Bcast:
		return "bcast"
	case Reduce:
		return "reduce"
	case Alltoall:
		return "alltoall"
	case ReduceScatter:
		return "reduce_scatter"
	case Gather:
		return "gather"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("Collective(%d)", int(c))
	}
}

// ParseCollective converts a name produced by String back to a
// Collective.
func ParseCollective(s string) (Collective, error) {
	for c := Collective(0); c < numCollectives; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("coll: unknown collective %q", s)
}

// NumCollectives is the number of collectives; valid Collective values
// are 0..NumCollectives-1, so dense per-collective arrays can be
// indexed by the enum (the rule-serving hot path does).
const NumCollectives = int(numCollectives)

// Collectives returns all collectives in stable (enum) order.
func Collectives() []Collective {
	cs := make([]Collective, NumCollectives)
	for i := range cs {
		cs[i] = Collective(i)
	}
	return cs
}

// PaperCollectives returns the four collectives the ACCLAiM paper
// studies, in its presentation order. The figure reproductions in
// internal/experiments enumerate these; everything else (tuning,
// datasets, rule serving) covers Collectives().
func PaperCollectives() []Collective {
	return []Collective{Allgather, Allreduce, Bcast, Reduce}
}

// algorithmNames fixes the per-collective algorithm order; the position
// of a name is its "algorithm" feature value in the ML models.
var algorithmNames = map[Collective][]string{
	Allgather:     {"recursive_doubling", "ring", "brucks"},
	Allreduce:     {"recursive_doubling", "reduce_scatter_allgather"},
	Bcast:         {"binomial", "scatter_recursive_doubling_allgather", "scatter_ring_allgather"},
	Reduce:        {"binomial", "scatter_gather"},
	Alltoall:      {"brucks", "pairwise", "scattered"},
	ReduceScatter: {"recursive_halving", "pairwise_exchange"},
	Gather:        {"binomial", "linear"},
	Scatter:       {"binomial", "linear"},
}

// AlgorithmNames returns the algorithm names of a collective in stable
// order. The returned slice must not be modified.
func AlgorithmNames(c Collective) []string { return algorithmNames[c] }

// NumAlgorithms returns how many algorithms a collective has.
func NumAlgorithms(c Collective) int { return len(algorithmNames[c]) }

// AlgIndex returns the feature index of an algorithm name.
func AlgIndex(c Collective, name string) (int, bool) {
	for i, n := range algorithmNames[c] {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Rooted reports whether the collective takes a root rank (bcast,
// reduce, gather, scatter). The table-driven property suite uses it to
// decide which collectives to sweep over roots.
func Rooted(c Collective) bool {
	switch c {
	case Bcast, Reduce, Gather, Scatter:
		return true
	default:
		return false
	}
}

// inputByte is the deterministic test pattern: the i-th byte of rank r's
// contribution. 251 is prime so patterns differ across ranks and offsets.
func inputByte(rank, i int) byte { return byte((rank*131 + i*29 + 7) % 251) }

// fillInput writes rank r's contribution pattern into a data buffer.
func fillInput(rank int, b simmpi.Buf) {
	if b.Data == nil {
		return
	}
	for i := range b.Data {
		b.Data[i] = inputByte(rank, i)
	}
}

// Options configures one collective execution.
type Options struct {
	WithData bool      // move and verify real bytes (slower)
	Op       simmpi.Op // reduction operator for reduce/allreduce
	Root     int       // root rank for rooted collectives (bcast, reduce)
}

// Exec runs the named algorithm of a collective over the model's ranks
// with the given message size and returns the simulated result. msgBytes
// follows the OSU convention: the per-rank contribution for allgather,
// gather, and scatter, the per-destination block for alltoall, and the
// full vector for the reductions (reduce_scatter splits that vector into
// ceilSegments, so reduce_scatter ≡ reduce + scatterv). With
// opts.WithData it also verifies the collective's postcondition and
// returns an error on any mismatch. It runs on a fresh engine, as
// simmpi.Run does; a caller that executes many collectives one after
// another uses ExecOn.
func Exec(model *netmodel.Model, c Collective, alg string, msgBytes int, opts Options) (simmpi.Result, error) {
	return ExecOn(nil, model, c, alg, msgBytes, opts)
}

// ExecOn is Exec on the caller's engine, which keeps its coroutines and
// arrays for the caller's next execution; a nil engine is Exec. The
// result is the same either way.
func ExecOn(e *simmpi.Engine, model *netmodel.Model, c Collective, alg string, msgBytes int, opts Options) (simmpi.Result, error) {
	if msgBytes < 1 {
		return simmpi.Result{}, errors.New("coll: message size must be >= 1")
	}
	n := model.Ranks()
	if n < 2 {
		return simmpi.Result{}, errors.New("coll: need at least 2 ranks")
	}
	if opts.Root < 0 || opts.Root >= n {
		return simmpi.Result{}, fmt.Errorf("coll: root %d out of range", opts.Root)
	}
	if _, ok := AlgIndex(c, alg); !ok {
		return simmpi.Result{}, fmt.Errorf("coll: collective %v has no algorithm %q", c, alg)
	}
	_, res, err := execOutputs(e, model, c, alg, msgBytes, opts)
	return res, err
}

// execOutputs dispatches to the per-collective harness, which runs on
// e, returning every rank's output buffer alongside the simulated
// result. The outputs are the seam the differential property and fuzz
// tests compare across independent schedules of the same collective;
// Exec discards them. For the single-receiver collectives (reduce,
// gather) only the root's output is meaningful.
func execOutputs(e *simmpi.Engine, model *netmodel.Model, c Collective, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	switch c {
	case Bcast:
		return execBcast(e, model, alg, msgBytes, opts)
	case Reduce:
		return execReduce(e, model, alg, msgBytes, opts)
	case Allreduce:
		return execAllreduce(e, model, alg, msgBytes, opts)
	case Allgather:
		return execAllgather(e, model, alg, msgBytes, opts)
	case Alltoall:
		return execAlltoall(e, model, alg, msgBytes, opts)
	case ReduceScatter:
		return execReduceScatter(e, model, alg, msgBytes, opts)
	case Gather:
		return execGather(e, model, alg, msgBytes, opts)
	case Scatter:
		return execScatter(e, model, alg, msgBytes, opts)
	default:
		return nil, simmpi.Result{}, fmt.Errorf("coll: unknown collective %v", c)
	}
}

// AlgSource answers "which algorithm should this collective call use"
// at collective-call time. It is the seam between the execution layer
// and a tuned selection source: *ruleserver.Index implements it over a
// compiled rule file, a *ruleserver.Server registry shard over a
// lock-free snapshot of one, and tests implement it with fixtures.
// A false return means the source has no rule for the query.
type AlgSource interface {
	Lookup(c Collective, nodes, ppn, msg int) (string, bool)
}

// newBuf allocates a buffer, with backing bytes only in data mode.
func newBuf(n int, withData bool) simmpi.Buf {
	if withData {
		return simmpi.BytesBuf(make([]byte, n))
	}
	return simmpi.MakeBuf(n)
}

// expectedReduction computes op over all ranks' input patterns.
func expectedReduction(n, bytes int, op simmpi.Op) []byte {
	acc := make([]byte, bytes)
	for i := range acc {
		acc[i] = inputByte(0, i)
	}
	tmp := simmpi.BytesBuf(acc)
	for r := 1; r < n; r++ {
		other := simmpi.BytesBuf(make([]byte, bytes))
		fillInput(r, other)
		op.Combine(tmp, other)
	}
	return acc
}

func verifyEqual(got simmpi.Buf, want []byte, what string, rank int) error {
	if got.Data == nil {
		return nil
	}
	if got.N != len(want) {
		return fmt.Errorf("coll: %s rank %d: got %d bytes, want %d", what, rank, got.N, len(want))
	}
	for i := range want {
		if got.Data[i] != want[i] {
			return fmt.Errorf("coll: %s rank %d: byte %d = %d, want %d", what, rank, i, got.Data[i], want[i])
		}
	}
	return nil
}
