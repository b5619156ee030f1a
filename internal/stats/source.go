package stats

import "math/rand"

// Source is math/rand's default generator, reseedable in place. For
// every seed, Source.Seed(seed) leaves it in exactly the state
// rand.NewSource(seed) starts from, so rand.New(&src) draws the same
// stream as rand.New(rand.NewSource(seed)) through every Rand method.
// It exists so a hot loop that needs one fresh, reproducible stream per
// work item (a forest's per-tree streams, a benchmark's per-spec noise)
// can keep one Source and reseed it instead of allocating a 4.9 KB
// generator per item.
//
// The generator is an additive lagged Fibonacci generator: 607 words,
// tap 273. Seeding fills the register from a Lehmer sequence
// (x ← 48271·x mod 2^31−1) XOR a fixed table. math/rand walks that
// sequence as one 1,841-step dependent chain; Seed takes each iterate
// k directly as 48271^k·x0 mod 2^31−1 from a power table, which is the
// same number and about twice as fast. A Source is not safe for
// concurrent use.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// lehmerSkip is the number of Lehmer iterates math/rand's Seed
	// discards before the first one it keeps.
	lehmerSkip = 20
)

var (
	// lehmerPow[3i+c] = 48271^(lehmerSkip+1+3i+c) mod 2^31−1: the
	// multipliers of the three iterates that fill register word i.
	lehmerPow [3 * rngLen]uint64

	// cooked is math/rand's unexported rngCooked table, XORed into the
	// register at Seed. It is recovered from rand.NewSource(1) at init.
	cooked [rngLen]int64
)

func init() {
	a := uint64(1)
	for k := 1; k <= lehmerSkip+len(lehmerPow); k++ {
		a = a * lehmerMul % lehmerMod
		if k > lehmerSkip {
			lehmerPow[k-lehmerSkip-1] = a
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads math/rand's seeding table back out of the first
// rngLen outputs of rand.NewSource(1). Output k adds the tap word into
// the feed word: feed (rngLen−rngTap−1−k) mod rngLen, still holding its
// seeded value, and tap rngLen−1−k, which for k ≥ rngTap was already
// overwritten by output k−rngTap. Two passes undo those sums and give
// the seeded register; a third XORs out the Lehmer fill, which is what
// Seed(1) computes while cooked is still zero.
func recoverCooked() [rngLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var out, reg [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		reg[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		reg[feed(k)] = out[k] - reg[rngLen-1-k]
	}
	var raw Source
	raw.Seed(1)
	for i := range reg {
		reg[i] ^= raw.vec[i]
	}
	return reg
}

// Seed resets the generator to the state rand.NewSource(seed) starts
// from, without allocating.
//
//acclaim:zeroalloc
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range s.vec {
		p := lehmerPow[3*i : 3*i+3 : 3*i+3]
		u := int64(p[0]*x0%lehmerMod) << 40
		u ^= int64(p[1]*x0%lehmerMod) << 20
		u ^= int64(p[2] * x0 % lehmerMod)
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64 bits of the stream.
//
//acclaim:zeroalloc
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next 63 bits of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
