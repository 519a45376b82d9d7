// Package analysis implements §5's probabilistic analysis of JISC:
// the triangular distribution over pairwise join-exchange positions
// (Eq. 1–2), the exact mean and variance of C_n — the number of
// complete states after a transition (Proposition 1) — their
// asymptotics (Proposition 2), and Monte-Carlo machinery to verify
// the concentration law C_n/n → 1 (Proposition 3).
package analysis

import (
	"fmt"
	"math"
	"math/rand"
)

// Harmonic returns H_n = Σ_{r=1..n} 1/r.
func Harmonic(n int) float64 {
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1.0 / float64(r)
	}
	return h
}

// Alpha returns the normalization factor α_n of Eq. 2 such that
// Σ_{1≤i<j≤n} α_n/(j−i) = 1. Expanding the double sum by distance
// d = j−i gives Σ_{d=1..n−1} (n−d)/d = n·H_{n−1} − (n−1), so
// α_n = 1/(n·H_{n−1} − n + 1) = 1/(n·H_n − n), using
// H_n = H_{n−1} + 1/n.
func Alpha(n int) float64 {
	if n < 2 {
		return math.NaN()
	}
	return 1.0 / (float64(n)*Harmonic(n) - float64(n))
}

// MeanCn returns E[C_n] per Proposition 1:
// (2n·H_n − 3n + 1) / (2H_n − 2).
func MeanCn(n int) float64 {
	h := Harmonic(n)
	return (2*float64(n)*h - 3*float64(n) + 1) / (2*h - 2)
}

// VarCn returns Var[C_n] per Proposition 1:
// (2n²·H_n² − n²·H_n ... ) — the paper's closed form printed with
// typesetting damage; we use the underlying derivation directly:
// Var[C_n] = E[(J−I)²] − (E[J−I])², with
// E[(J−I)²] = α_n · Σ_d d(n−d) = α_n · n(n²−1)/6 = (n²−1)/(6H_n−6)
// and E[J−I] = α_n · n(n−1)/2 = (n−1)/(2H_n−2).
func VarCn(n int) float64 {
	h := Harmonic(n)
	eD := float64(n-1) / (2*h - 2)
	eD2 := (float64(n)*float64(n) - 1) / (6*h - 6)
	return eD2 - eD*eD
}

// MeanCnAsymptotic returns the Proposition 2 leading-order expansion
// E[C_n] ≈ n − n/(2 ln n).
func MeanCnAsymptotic(n int) float64 {
	ln := math.Log(float64(n))
	return float64(n) - float64(n)/(2*ln)
}

// VarCnAsymptotic returns the Proposition 2 leading-order expansion
// Var[C_n] ≈ n²/(6 ln n).
func VarCnAsymptotic(n int) float64 {
	ln := math.Log(float64(n))
	return float64(n) * float64(n) / (6 * ln)
}

// SampleSwap draws a pair (I, J), 1 ≤ I < J ≤ n, from the triangular
// distribution of Eq. 1 using inverse-transform sampling over the
// distance d = J−I (Prob(d) = α_n (n−d)/d) and a uniform position.
func SampleSwap(rng *rand.Rand, n int) (i, j int) {
	if n < 2 {
		panic(fmt.Sprintf("analysis: need n >= 2, got %d", n))
	}
	alpha := Alpha(n)
	u := rng.Float64()
	acc := 0.0
	d := 1
	for ; d < n; d++ {
		acc += alpha * float64(n-d) / float64(d)
		if u <= acc {
			break
		}
	}
	if d >= n {
		d = n - 1
	}
	i = 1 + rng.Intn(n-d)
	return i, i + d
}

// CompleteStates returns C_n = n − (J−I), Eq. 3.
func CompleteStates(n, i, j int) int { return n - (j - i) }

// MonteCarlo estimates the mean and variance of C_n over samples
// draws.
func MonteCarlo(rng *rand.Rand, n, samples int) (mean, variance float64) {
	sum, sumSq := 0.0, 0.0
	for s := 0; s < samples; s++ {
		i, j := SampleSwap(rng, n)
		c := float64(CompleteStates(n, i, j))
		sum += c
		sumSq += c * c
	}
	mean = sum / float64(samples)
	variance = sumSq/float64(samples) - mean*mean
	return mean, variance
}

// ConcentrationTail estimates Prob(|C_n/n − 1| > eps) by Monte Carlo —
// the quantity Proposition 3 proves tends to 0.
func ConcentrationTail(rng *rand.Rand, n, samples int, eps float64) float64 {
	bad := 0
	for s := 0; s < samples; s++ {
		i, j := SampleSwap(rng, n)
		ratio := float64(CompleteStates(n, i, j)) / float64(n)
		if math.Abs(ratio-1) > eps {
			bad++
		}
	}
	return float64(bad) / float64(samples)
}

// ChebyshevBound returns Var[C_n]/(ε n)², the Proposition 3 bound on
// the concentration tail.
func ChebyshevBound(n int, eps float64) float64 {
	d := eps * float64(n)
	return VarCn(n) / (d * d)
}
