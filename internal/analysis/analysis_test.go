package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jisc/internal/testseed"
)

func TestHarmonic(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3}, {4, 1.5 + 1.0/3 + 0.25},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("H_%d = %v, want %v", c.n, got, c.want)
		}
	}
}

// SwapProb returns Prob(I=i, J=j) for 1 ≤ i < j ≤ n under the
// triangular distribution of Eq. 1: α_n/(j−i) — the reference
// Proposition 1's closed forms are enumerated against.
func SwapProb(n, i, j int) float64 {
	if i < 1 || j <= i || j > n {
		return 0
	}
	return Alpha(n) / float64(j-i)
}

// The triangular distribution must sum to 1 (Eq. 2 normalizes it).
func TestSwapProbNormalized(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 50, 200} {
		sum := 0.0
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				sum += SwapProb(n, i, j)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: Σ Prob = %v", n, sum)
		}
	}
}

func TestSwapProbOutOfRange(t *testing.T) {
	for _, c := range [][3]int{{5, 0, 2}, {5, 2, 2}, {5, 3, 2}, {5, 2, 6}} {
		if p := SwapProb(c[0], c[1], c[2]); p != 0 {
			t.Errorf("SwapProb(%v) = %v, want 0", c, p)
		}
	}
}

// Proposition 1 exact values against direct enumeration of the
// distribution.
func TestProposition1AgainstEnumeration(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16, 64} {
		mean, varc := 0.0, 0.0
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				p := SwapProb(n, i, j)
				c := float64(CompleteStates(n, i, j))
				mean += p * c
				varc += p * c * c
			}
		}
		varc -= mean * mean
		if got := MeanCn(n); math.Abs(got-mean) > 1e-9 {
			t.Errorf("n=%d: MeanCn = %v, enumeration = %v", n, got, mean)
		}
		if got := VarCn(n); math.Abs(got-varc) > 1e-6 {
			t.Errorf("n=%d: VarCn = %v, enumeration = %v", n, got, varc)
		}
	}
}

// Proposition 2: asymptotic forms converge to the exact ones.
func TestProposition2Asymptotics(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		relMean := math.Abs(MeanCn(n)-MeanCnAsymptotic(n)) / MeanCn(n)
		if relMean > 0.05 {
			t.Errorf("n=%d: mean asymptotic off by %v", n, relMean)
		}
		relVar := math.Abs(VarCn(n)-VarCnAsymptotic(n)) / VarCn(n)
		if relVar > 0.5 {
			t.Errorf("n=%d: var asymptotic off by %v", n, relVar)
		}
	}
	// The variance approximation must improve with n.
	r1 := math.Abs(VarCn(1<<10)-VarCnAsymptotic(1<<10)) / VarCn(1<<10)
	r2 := math.Abs(VarCn(1<<18)-VarCnAsymptotic(1<<18)) / VarCn(1<<18)
	if r2 >= r1 {
		t.Errorf("variance asymptotic not improving: %v -> %v", r1, r2)
	}
}

// Monte-Carlo sampling reproduces the closed forms.
func TestMonteCarloMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 42)))
	for _, n := range []int{8, 32, 128} {
		mean, varc := MonteCarlo(rng, n, 200000)
		if rel := math.Abs(mean-MeanCn(n)) / MeanCn(n); rel > 0.01 {
			t.Errorf("n=%d: MC mean %v vs %v", n, mean, MeanCn(n))
		}
		if rel := math.Abs(varc-VarCn(n)) / VarCn(n); rel > 0.05 {
			t.Errorf("n=%d: MC var %v vs %v", n, varc, VarCn(n))
		}
	}
}

// Proposition 3: the tail probability shrinks as n grows and is
// bounded by Chebyshev.
func TestProposition3Concentration(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 7)))
	const eps = 0.25
	prev := 1.0
	for _, n := range []int{16, 256, 4096} {
		tail := ConcentrationTail(rng, n, 100000, eps)
		if tail > prev+0.01 {
			t.Errorf("n=%d: tail %v did not shrink (prev %v)", n, tail, prev)
		}
		// Chebyshev bounds the tail (up to MC noise).
		if bound := ChebyshevBound(n, eps); tail > bound+0.02 {
			t.Errorf("n=%d: tail %v exceeds Chebyshev bound %v", n, tail, bound)
		}
		prev = tail
	}
	// The tail decays as O(1/ln n) (Proposition 3's bound), so it is
	// still ~0.08 at n=4096; assert the order of magnitude, not more.
	if prev > 0.12 {
		t.Errorf("tail at n=4096 = %v, concentration law violated", prev)
	}
}

// Property: SampleSwap always returns a valid pair.
func TestSampleSwapValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 1)))
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw%60)
		i, j := SampleSwap(rng, n)
		return 1 <= i && i < j && j <= n
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 500)); err != nil {
		t.Fatal(err)
	}
}

// Property: C_n within [1, n-1]... C_n = n-(j-i) ∈ [n-(n-1), n-1] = [1, n-1].
func TestCompleteStatesRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 2)))
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw%60)
		i, j := SampleSwap(rng, n)
		c := CompleteStates(n, i, j)
		return 1 <= c && c <= n-1
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 500)); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaSmallN(t *testing.T) {
	if !math.IsNaN(Alpha(1)) {
		t.Error("Alpha(1) should be NaN")
	}
	// n=2: single pair (1,2), so α_2/(2−1) = 1 ⇒ α_2 = 1.
	if math.Abs(Alpha(2)-1) > 1e-12 {
		t.Errorf("Alpha(2) = %v, want 1", Alpha(2))
	}
}

func TestSampleSwapPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n < 2")
		}
	}()
	SampleSwap(rand.New(rand.NewSource(1)), 1)
}

// BenchmarkPropositionsMonteCarlo covers the §5 analysis table: the
// cost of sampling the pairwise-exchange distribution.
func BenchmarkPropositionsMonteCarlo(b *testing.B) {
	rng := rand.New(rand.NewSource(testseed.Seed(b, 1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SampleSwap(rng, 1024)
	}
}
