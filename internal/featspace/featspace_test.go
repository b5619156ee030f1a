package featspace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestP2Values(t *testing.T) {
	got := p2Values(2, 64)
	want := []int{2, 4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("p2Values(2,64) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p2Values(2,64) = %v, want %v", got, want)
		}
	}
}

func TestP2ValuesNonP2Bounds(t *testing.T) {
	got := p2Values(3, 60)
	want := []int{4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("p2Values(3,60) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p2Values(3,60)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIsP2(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false, 4: true,
		6: false, 1024: true, 1023: false, 1 << 20: true,
	}
	for v, want := range cases {
		if got := IsP2(v); got != want {
			t.Errorf("IsP2(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestPrevNextP2(t *testing.T) {
	cases := []struct{ v, prev, next int }{
		{1, 1, 1}, {2, 2, 2}, {3, 2, 4}, {5, 4, 8}, {8, 8, 8},
		{9, 8, 16}, {1000, 512, 1024}, {1024, 1024, 1024},
	}
	for _, c := range cases {
		if got := PrevP2(c.v); got != c.prev {
			t.Errorf("PrevP2(%d) = %d, want %d", c.v, got, c.prev)
		}
		if got := NextP2(c.v); got != c.next {
			t.Errorf("NextP2(%d) = %d, want %d", c.v, got, c.next)
		}
	}
}

func TestP2Frac(t *testing.T) {
	if f := p2Frac(8); f != 0 {
		t.Errorf("p2Frac(8) = %v, want 0", f)
	}
	if f := p2Frac(12); f != 0.5 {
		t.Errorf("p2Frac(12) = %v, want 0.5", f)
	}
	if f := p2Frac(15); f != 7.0/8.0 {
		t.Errorf("p2Frac(15) = %v, want 7/8", f)
	}
}

// Property: PrevP2(v) <= v <= NextP2(v), both results are powers of two,
// and NextP2 <= 2*PrevP2.
func TestP2BoundsProperty(t *testing.T) {
	f := func(raw uint16) bool {
		v := int(raw)%100000 + 1
		p, n := PrevP2(v), NextP2(v)
		return p <= v && v <= n && IsP2(p) && IsP2(n) && n <= 2*p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonP2NearRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []int{8, 16, 64, 1024, 1 << 20} {
		for i := 0; i < 200; i++ {
			got := NonP2Near(rng, v)
			if IsP2(got) {
				t.Fatalf("NonP2Near(%d) returned power of two %d", v, got)
			}
			lo, hi := v-v/4, v+v/2
			if got < lo || got > hi {
				t.Fatalf("NonP2Near(%d) = %d outside [%d, %d]", v, got, lo, hi)
			}
		}
	}
}

func TestNonP2NearSmallValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, v := range []int{1, 2, 4} {
		got := NonP2Near(rng, v)
		if IsP2(got) {
			t.Errorf("NonP2Near(%d) = %d is a power of two", v, got)
		}
	}
}

func TestNonP2NearPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := NonP2Near(rng, 12); got != 12 {
		t.Errorf("NonP2Near(12) = %d, want 12 (already non-P2)", got)
	}
}

func TestSpaceEnumeration(t *testing.T) {
	s := Space{Nodes: []int{2, 4}, PPNs: []int{1, 2}, Msgs: []int{8, 16, 32}}
	pts := s.Points()
	if len(pts) != s.Size() || s.Size() != 12 {
		t.Fatalf("Points() returned %d points, Size() = %d, want 12", len(pts), s.Size())
	}
	// Deterministic order: first point is the all-minimum corner.
	if pts[0] != (Point{2, 1, 8}) {
		t.Errorf("first point = %v", pts[0])
	}
	if pts[len(pts)-1] != (Point{4, 2, 32}) {
		t.Errorf("last point = %v", pts[len(pts)-1])
	}
	for _, p := range pts {
		if !s.Contains(p) {
			t.Errorf("space does not contain own point %v", p)
		}
	}
	if s.Contains(Point{3, 1, 8}) {
		t.Error("Contains(3,1,8) = true, want false")
	}
}

func TestPointValidAndRanks(t *testing.T) {
	if (Point{1, 1, 8}).Valid() {
		t.Error("single-rank point should be invalid")
	}
	if !(Point{1, 2, 8}).Valid() {
		t.Error("1 node x 2 ppn should be valid")
	}
	if (Point{2, 4, 8}).Ranks() != 8 {
		t.Error("Ranks() wrong")
	}
	if (Point{2, 4, 0}).Valid() {
		t.Error("zero message size should be invalid")
	}
}

func TestPointValidate(t *testing.T) {
	// Validate must agree with Valid and name the failure.
	for _, p := range []Point{{1, 1, 8}, {1, 2, 8}, {2, 4, 0}, {0, 4, 8}, {8, 2, 4096}} {
		err := p.Validate()
		if (err == nil) != p.Valid() {
			t.Errorf("Validate(%v) = %v, Valid = %v", p, err, p.Valid())
		}
	}
	if err := (Point{2, 4, 0}).Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("zero-msg error should name the positive-components rule, got %v", err)
	}
	if err := (Point{1, 1, 8}).Validate(); err == nil || !strings.Contains(err.Error(), "single-rank") {
		t.Errorf("single-rank error should name the rank rule, got %v", err)
	}
}

func TestFeatures(t *testing.T) {
	f := Features(Point{Nodes: 12, PPN: 4, MsgBytes: 24}, 3)
	if len(f) != NumFeatures {
		t.Fatalf("len(Features) = %d, want %d", len(f), NumFeatures)
	}
	if f[0] != 12 || f[1] != 4 {
		t.Errorf("nodes/ppn features = %v/%v", f[0], f[1])
	}
	if f[3] != log2(48) { // ranks = 12*4
		t.Errorf("log2(ranks) = %v, want log2(48)", f[3])
	}
	if f[4] != 0.5 { // 24 is halfway between 16 and 32
		t.Errorf("p2frac(msg) = %v, want 0.5", f[4])
	}
	if f[5] != 0.5 { // 12 is halfway between 8 and 16
		t.Errorf("p2frac(nodes) = %v, want 0.5", f[5])
	}
	if f[6] != 3 {
		t.Errorf("alg feature = %v, want 3", f[6])
	}
}

func TestFeaturesWithoutAlg(t *testing.T) {
	f := Features(Point{Nodes: 8, PPN: 2, MsgBytes: 64})
	if len(f) != NumFeatures-1 {
		t.Fatalf("len = %d, want %d", len(f), NumFeatures-1)
	}
	if f[4] != 0 || f[5] != 0 {
		t.Errorf("P2 point should have zero p2frac features: %v", f)
	}
}
