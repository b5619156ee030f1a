// Package ruleserver is the collective-call hot path: a concurrent
// serving engine for MPICH-style selection-rule files (the artifact
// ACCLAiM emits after training, Section V of the paper).
//
// The nested rules.Table decision list is the right shape for humans
// and for the JSON wire format, but the wrong shape for a lookup that
// runs on every collective call of every rank. Compile flattens a
// validated rules.File into an immutable Index: per collective, the
// node/ppn/message thresholds become three contiguous int64 arrays
// resolved by inlined binary search, and algorithm names are interned
// into a shared string table so a lookup touches a handful of cache
// lines and allocates nothing.
//
// Registry holds one Server shard per tenant, and each shard wraps an
// Index in an atomic.Pointer snapshot so unbounded concurrent readers
// never take a lock, and a retuning round can hot-swap a freshly
// emitted rule file while in-flight lookups finish on the old
// snapshot. See DESIGN.md, "Serving layer".
package ruleserver

import (
	"fmt"
	"math/bits"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
)

// numExp is the number of power-of-two exponent cells a query value can
// land in: cell 0 holds v <= 0, cell 1 holds {1}, cell 2 holds {2}, and
// cell e >= 3 holds (2^(e-2), 2^(e-1)]. The top cell absorbs everything
// above 2^61 (queries that large scan a step or two more; nothing real
// lives up there). A power-of-two cell count keeps the per-bucket start
// table stride a shift, not a multiply.
const numExp = 64

// expShift is log2(numExp), for composing 2-D cell indices.
const expShift = 6

// maxNodeResolve and maxPPNResolve bound the exact-resolve tables (see
// tableIndex.nodeResolve): tables whose last finite node threshold or
// node-buckets x ppn-limit product exceed these fall back to the
// exponent-cell walk. Real rule files sit far below both.
const (
	maxNodeResolve = 1 << 12
	maxPPNResolve  = 1 << 15
)

// tableIndex is one collective's flattened decision list.
//
// The three bucket levels of the nested table are laid out as parallel
// arrays with CSR-style offsets: node bucket i owns the ppn thresholds
// ppnMax[ppnOff[i]:ppnOff[i+1]], and ppn bucket j owns the message
// thresholds msgMax[ruleOff[j]:ruleOff[j+1]]. Each msg slot carries the
// index of its algorithm in the interned string table. Thresholds are
// inclusive upper bounds, ascending, ending in rules.Unbounded, exactly
// as rules.Validate guarantees.
//
// On top of the flat arrays sits an exponent accelerator: for every
// power-of-two cell of the query value, the compiled start tables hold
// the first bucket a value in that cell can resolve to. A lookup is
// then bits.Len plus a scan over only the thresholds that fall inside
// the query's own power-of-two cell — almost always zero or one step,
// since real rule files put at most a threshold or two between
// consecutive powers of two. No binary search, no per-call allocation.
//
//acclaim:frozen
type tableIndex struct {
	nodeMax []int64
	ppnOff  []int32
	ppnMax  []int64
	ruleOff []int32
	msgMax  []int64
	algID   []int32
	algs    []string
	algAt   []string // algAt[k] == algs[algID[k]]: one load on the hot path

	// Exponent start tables. nodeStart[e] is the first node bucket a
	// value in exponent cell e can select; ppnStart[i*numExp+e] and
	// msgStart[j*numExp+e] are the per-parent-bucket equivalents
	// (global indices into ppnMax / msgMax). nodeStart is a fixed-size
	// array pointer so masked indexing needs no bounds check.
	nodeStart *[numExp]int32
	ppnStart  []int32
	msgStart  []int32

	// Exact-resolve tables for the two small dimensions. Node counts
	// and ppn are small integers, so the bucket for every value up to
	// the last finite threshold is precomputed outright:
	// nodeResolve[clamp(nodes)] is the exact node bucket and
	// ppnResolve[i*ppnLimit+clamp(ppn)] the exact global ppn bucket —
	// one load each, no search, no scan, no branch to mispredict.
	// Values past the end of a table clamp onto the catch-all entry,
	// which is exactly where the nested walk sends them too. Both are
	// nil (and the lookup takes the walk) for tables with finite
	// thresholds too large to enumerate; real rule files never are.
	nodeResolve []int32
	ppnResolve  []int32
	ppnLimit    int
}

// expOf maps a query value to its exponent cell. Cells are aligned to
// power-of-two *upper* bounds (cell e >= 3 covers (2^(e-2), 2^(e-1)]),
// so a rule bucket whose threshold is an exact power of two (the
// overwhelmingly common case in generated rule files) covers whole
// cells and the in-cell scan terminates on its first probe.
func expOf(v int) int {
	if v < 1 {
		return 0
	}
	return min(1+bits.Len64(uint64(v-1)), numExp-1)
}

// expLo returns the smallest value in exponent cell e (0 for cell 0,
// standing in for "any non-positive value").
func expLo(e int) int64 {
	switch {
	case e <= 0:
		return 0
	case e == 1:
		return 1
	default:
		return int64(1)<<uint(e-2) + 1
	}
}

// expHi returns the largest value in exponent cell e (the top cell is
// unbounded above because expOf clamps).
func expHi(e int) int64 {
	switch {
	case e <= 0:
		return 0
	case e >= numExp-1:
		return rules.Unbounded
	default:
		return int64(1) << uint(e-1)
	}
}

// startTable computes, for one ascending threshold span, the first
// index a value in each exponent cell can resolve to: the position of
// the first threshold >= the cell's smallest value. When the whole cell
// resolves to a single index — every threshold is either below the cell
// or at/above its top, which power-of-two thresholds guarantee — the
// entry stores that index bit-inverted (^idx, always negative): the
// lookup recognises the sign and skips the threshold scan for that
// level entirely, shaving a dependent load off the critical path.
func startTable(dst []int32, span []int64, base int32) []int32 {
	for e := 0; e < numExp; e++ {
		lo := base + int32(searchGE(span, expLo(e)))
		if hi := base + int32(searchGE(span, expHi(e))); hi == lo {
			dst = append(dst, ^lo)
			continue
		}
		dst = append(dst, lo)
	}
	return dst
}

// Index is an immutable compiled rule file. It is safe for unbounded
// concurrent readers; all mutation happens by compiling a replacement.
//
//acclaim:frozen
type Index struct {
	byColl [coll.NumCollectives]*tableIndex // one table per collective, nil if untuned
	rules  int                              // total message-level rules
}

// Compile validates the file and flattens every table. Every table must
// be named after a collective: a lookup is keyed by the collective, so
// a table under any other name could never be reached, and accepting it
// would hide a typo in a hand-edited file. The input file is not
// retained: the index copies what it needs, so callers may keep
// mutating the File afterwards.
func Compile(f *rules.File) (*Index, error) {
	if f == nil {
		return nil, fmt.Errorf("ruleserver: nil rule file")
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("ruleserver: %w", err)
	}
	ix := &Index{}
	for name, t := range f.Tables {
		c, err := coll.ParseCollective(name)
		if err != nil {
			return nil, fmt.Errorf("ruleserver: table %q is not named after a collective", name)
		}
		ti := flatten(t)
		ix.byColl[int(c)] = ti
		ix.rules += len(ti.msgMax)
	}
	return ix, nil
}

// flatten lowers one validated table.
func flatten(t *rules.Table) *tableIndex {
	ti := &tableIndex{}
	intern := map[string]int32{}
	for _, nb := range t.Buckets {
		ti.nodeMax = append(ti.nodeMax, nb.MaxNodes)
		ti.ppnOff = append(ti.ppnOff, int32(len(ti.ppnMax)))
		for _, pb := range nb.PPNs {
			ti.ppnMax = append(ti.ppnMax, pb.MaxPPN)
			ti.ruleOff = append(ti.ruleOff, int32(len(ti.msgMax)))
			for _, r := range pb.Rules {
				id, ok := intern[r.Alg]
				if !ok {
					id = int32(len(ti.algs))
					ti.algs = append(ti.algs, r.Alg)
					intern[r.Alg] = id
				}
				ti.msgMax = append(ti.msgMax, r.MaxMsg)
				ti.algID = append(ti.algID, id)
				ti.algAt = append(ti.algAt, ti.algs[id])
			}
		}
	}
	// Closing offsets so level i's span is always off[i]:off[i+1].
	ti.ppnOff = append(ti.ppnOff, int32(len(ti.ppnMax)))
	ti.ruleOff = append(ti.ruleOff, int32(len(ti.msgMax)))

	// Exponent accelerator: per-cell start positions for every level.
	ti.nodeStart = (*[numExp]int32)(startTable(nil, ti.nodeMax, 0))
	for i := 0; i+1 < len(ti.ppnOff); i++ {
		lo, hi := ti.ppnOff[i], ti.ppnOff[i+1]
		ti.ppnStart = startTable(ti.ppnStart, ti.ppnMax[lo:hi], lo)
	}
	for j := 0; j+1 < len(ti.ruleOff); j++ {
		lo, hi := ti.ruleOff[j], ti.ruleOff[j+1]
		ti.msgStart = startTable(ti.msgStart, ti.msgMax[lo:hi], lo)
	}
	// Exact-resolve tables for the node and ppn dimensions. lastFinite
	// is the largest non-Unbounded threshold of a span (0 when the span
	// is a lone catch-all); one entry past it clamps every larger value
	// onto the catch-all bucket.
	lastFinite := func(span []int64) int64 {
		if n := len(span); n >= 2 {
			return span[n-2]
		}
		return 0
	}
	nLimit := lastFinite(ti.nodeMax) + 2
	pLimit := int64(0)
	for i := 0; i+1 < len(ti.ppnOff); i++ {
		span := ti.ppnMax[ti.ppnOff[i]:ti.ppnOff[i+1]]
		if lf := lastFinite(span) + 2; lf > pLimit {
			pLimit = lf
		}
	}
	if nLimit <= maxNodeResolve && int64(len(ti.nodeMax))*pLimit <= maxPPNResolve {
		ti.nodeResolve = make([]int32, nLimit)
		for v := range ti.nodeResolve {
			ti.nodeResolve[v] = int32(searchGE(ti.nodeMax, int64(v)))
		}
		ti.ppnLimit = int(pLimit)
		ti.ppnResolve = make([]int32, len(ti.nodeMax)*ti.ppnLimit)
		for i := 0; i+1 < len(ti.ppnOff); i++ {
			base := ti.ppnOff[i]
			span := ti.ppnMax[base:ti.ppnOff[i+1]]
			for v := 0; v < ti.ppnLimit; v++ {
				ti.ppnResolve[i*ti.ppnLimit+v] = base + int32(searchGE(span, int64(v)))
			}
		}
	}
	return ti
}

// searchGE returns the index of the first element >= v, len(a) if none.
// It is the manual form of sort.Search's loop: no closure, no function
// pointer, so it inlines into the lookup and stays allocation-free.
func searchGE(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// walk is the general three-level resolution. Each level jumps to its
// exponent cell's start position and scans only the thresholds inside
// the query's own power-of-two cell — a step or two at most in real
// rule files, so even this path is effectively constant time.
//
// The scans carry no explicit upper bound: Compile only builds indexes
// from validated tables, and validation guarantees every level ends in
// an Unbounded catch-all, which no query value can exceed (Unbounded is
// MaxInt64). The implicit slice bounds checks remain as the memory-
// safety backstop.
//
//acclaim:zeroalloc
func (ti *tableIndex) walk(nodes, ppn, msg int) (string, bool) {
	i := int(ti.nodeStart[expOf(nodes)&(numExp-1)])
	if i < 0 {
		i = ^i // cell resolved at compile time, no scan
	} else {
		for n := int64(nodes); ti.nodeMax[i] < n; {
			i++
		}
	}
	j := int(ti.ppnStart[i*numExp+expOf(ppn)])
	if j < 0 {
		j = ^j
	} else {
		for p := int64(ppn); ti.ppnMax[j] < p; {
			j++
		}
	}
	k := int(ti.msgStart[j*numExp+expOf(msg)])
	if k < 0 {
		k = ^k
	} else {
		for m := int64(msg); ti.msgMax[k] < m; {
			k++
		}
	}
	return ti.algAt[k], true
}

// Lookup resolves a collective call on the fast path (array-indexed by
// the collective enum). It returns false only when the index has no
// table for the collective; for a table compiled by Compile the walk
// itself cannot miss (validation guarantees Unbounded catch-alls at
// every level).
//
// The exact-resolve path is written out here rather than in a method
// of tableIndex to keep the hot path a single non-inlined call deep; at
// single-digit nanoseconds per lookup a second call frame is
// measurable. Only the rare table too large to enumerate pays the
// second frame, in walk.
//
//acclaim:zeroalloc
func (ix *Index) Lookup(c coll.Collective, nodes, ppn, msg int) (string, bool) {
	if uint(c) >= uint(len(ix.byColl)) {
		return "", false
	}
	ti := ix.byColl[int(c)]
	if ti == nil {
		return "", false
	}
	if ti.ppnResolve == nil {
		return ti.walk(nodes, ppn, msg)
	}
	nv := nodes
	if nv < 0 {
		nv = 0
	}
	if nv > len(ti.nodeResolve)-1 {
		nv = len(ti.nodeResolve) - 1
	}
	i := int(ti.nodeResolve[nv])
	pv := ppn
	if pv < 0 {
		pv = 0
	}
	if pv > ti.ppnLimit-1 {
		pv = ti.ppnLimit - 1
	}
	j := int(ti.ppnResolve[i*ti.ppnLimit+pv])
	k := int(ti.msgStart[j<<expShift|(expOf(msg)&(numExp-1))])
	if k < 0 {
		k = ^k
	} else {
		for m := int64(msg); ti.msgMax[k] < m; {
			k++
		}
	}
	return ti.algAt[k], true
}

// NumRules returns the total number of message-level rules compiled in.
func (ix *Index) NumRules() int { return ix.rules }

// numTables returns the number of collectives with a compiled table.
func (ix *Index) numTables() int {
	n := 0
	for _, ti := range ix.byColl {
		if ti != nil {
			n++
		}
	}
	return n
}
