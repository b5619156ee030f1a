package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the edge seeds of math/rand's seeding (zero maps to
// 89482311, seeds reduce mod 2^31−1 with a sign fix-up) plus 200
// drawn ones.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -1 << 62, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(20240917))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand pins Source to math/rand's stream: for
// every seed, 3,000 Uint64 draws equal rand.NewSource's, and a
// rand.Rand over a reseeded Source matches a fresh one method by
// method. One Source is reseeded throughout, so a state leak from one
// seed into the next would show.
func TestSourceMatchesMathRand(t *testing.T) {
	var src Source
	for _, seed := range sourceSeeds() {
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3000; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %d, math/rand %d", seed, got, want)
		}

		src.Seed(seed)
		a, b := rand.New(&src), rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			n := 1 + i*i*7919
			if got, want := a.Intn(n), b.Intn(n); got != want {
				t.Fatalf("seed %d: Intn(%d) %d, math/rand %d", seed, n, got, want)
			}
			if got, want := a.NormFloat64(), b.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: NormFloat64 %v, math/rand %v", seed, got, want)
			}
		}
		pa, pb := a.Perm(50), b.Perm(50)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("seed %d: Perm %v, math/rand %v", seed, pa, pb)
			}
		}
	}
}

// TestSourceZeroAlloc is the runtime half of the //acclaim:zeroalloc
// annotations on Seed and Uint64.
func TestSourceZeroAlloc(t *testing.T) {
	src := new(Source)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; src.Seed(seed) }); n != 0 {
		t.Errorf("Seed allocates %v per op, want 0", n)
	}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() { sink += src.Uint64() }); n != 0 {
		t.Errorf("Uint64 allocates %v per op, want 0", n)
	}
	_ = sink
}

// BenchmarkSourceSeed and BenchmarkMathRandNewSource compare reseeding
// in place with allocating a fresh math/rand generator.
func BenchmarkSourceSeed(b *testing.B) {
	var src Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

var sourceSink rand.Source

func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sourceSink = rand.NewSource(int64(i))
	}
}
