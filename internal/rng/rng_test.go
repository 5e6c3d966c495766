package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestDeriveIndependentOfOrder(t *testing.T) {
	parent := New(7)
	x1 := parent.Derive("solar").Uint64()
	y1 := parent.Derive("price").Uint64()

	parent2 := New(7)
	y2 := parent2.Derive("price").Uint64()
	x2 := parent2.Derive("solar").Uint64()

	if x1 != x2 || y1 != y2 {
		t.Fatal("derived streams depend on derivation order")
	}
}

func TestDeriveLabelsSeparate(t *testing.T) {
	parent := New(7)
	a := parent.Derive("a")
	b := parent.Derive("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced identical first outputs")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	const mean, sd = 3.0, 2.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Errorf("normal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Errorf("normal stddev = %v, want ~%v", math.Sqrt(variance), sd)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		v := s.TruncNormal(0, 5, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalExtremeBoundsTerminates(t *testing.T) {
	s := New(8)
	// Bounds far from the mean: rejection will fail, clamping must kick in.
	v := s.TruncNormal(0, 0.001, 100, 101)
	if v < 100 || v > 101 {
		t.Fatalf("TruncNormal clamp out of bounds: %v", v)
	}
}

func TestTruncNormalPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TruncNormal(lo>hi) did not panic")
		}
	}()
	New(1).TruncNormal(0, 1, 2, 1)
}

func TestExponentialMean(t *testing.T) {
	s := New(10)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(2.0)
		if v < 0 {
			t.Fatalf("Exponential returned negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exponential mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(13)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice([]float64{1, 2, 7})]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Choice index %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestChoiceZeroWeightNeverPicked(t *testing.T) {
	s := New(14)
	for i := 0; i < 10000; i++ {
		if s.Choice([]float64{0, 1, 0}) != 1 {
			t.Fatal("Choice picked a zero-weight index")
		}
	}
}

func TestChoicePanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", weights)
				}
			}()
			New(1).Choice(weights)
		}()
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRangeProperty(t *testing.T) {
	s := New(15)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo <= 0 || math.IsInf(hi-lo, 0) {
			return true
		}
		v := s.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(16)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	after := 0
	for _, v := range xs {
		after += v
	}
	if sum != after {
		t.Fatalf("Shuffle changed multiset: %v", xs)
	}
}
