package linalg

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// randSPD builds a random symmetric positive definite n×n matrix A·Aᵀ + I.
func randSPD(r *rng.RNG, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.Uniform(-1, 1)
	}
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+1)
	}
	return spd
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At broken")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 9 {
		t.Fatal("Clone is shallow")
	}
	tr := m.T()
	if tr.At(1, 0) != m.At(0, 1) {
		t.Fatal("T broken")
	}
}

func TestMulAgainstHand(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul = %+v", got)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestIdentityAndSub(t *testing.T) {
	i3 := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	z := i3.Sub(i3)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("I - I != 0")
		}
	}
}

func TestSubmatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{0, 2}, []int{1})
	if s.Rows != 2 || s.Cols != 1 || s.At(0, 0) != 2 || s.At(1, 0) != 8 {
		t.Fatalf("Submatrix = %+v", s)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		m := randSPD(r, n)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		back := l.Mul(l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(back.At(i, j), m.At(i, j), 1e-9) {
					t.Fatalf("trial %d: L·Lᵀ != M at (%d,%d): %v vs %v",
						trial, i, j, back.At(i, j), m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(m); err == nil {
		t.Fatal("expected ErrNotPD")
	}
}

func TestSolveSPD(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		m := randSPD(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Uniform(-5, 5)
		}
		b := m.MulVec(want)
		got, err := SolveSPD(m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-7) {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestInverseSPD(t *testing.T) {
	r := rng.New(13)
	m := randSPD(r, 5)
	inv, err := InverseSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-8) {
				t.Fatalf("M·M⁻¹ not identity at (%d,%d): %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestQuadForm(t *testing.T) {
	m := FromRows([][]float64{{2, 1}, {1, 3}})
	x := []float64{1, 2}
	// xᵀMx = 2 + 2 + 2 + 12 = 18.
	if got := QuadForm(m, x); got != 18 {
		t.Fatalf("QuadForm = %v", got)
	}
}

// Conditional covariance of a 2-var normal must match the textbook formula
// σ2²(1-ρ²).
func TestConditionalCovarianceBivariate(t *testing.T) {
	s1, s2, rho := 2.0, 3.0, 0.6
	sigma := FromRows([][]float64{
		{s1 * s1, rho * s1 * s2},
		{rho * s1 * s2, s2 * s2},
	})
	cc, err := ConditionalCovariance(sigma, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := s2 * s2 * (1 - rho*rho)
	if !almostEq(cc.At(0, 0), want, 1e-12) {
		t.Fatalf("conditional var = %v, want %v", cc.At(0, 0), want)
	}
}

func TestConditionalCovarianceEmptyCond(t *testing.T) {
	sigma := FromRows([][]float64{{4, 1}, {1, 9}})
	cc, err := ConditionalCovariance(sigma, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cc.At(0, 0) != 4 || cc.At(1, 1) != 9 {
		t.Fatal("empty conditioning should return marginal covariance")
	}
}

// Property: conditioning on more variables never increases the conditional
// variance of the remaining ones (diagonal entries shrink).
func TestConditioningShrinksVariance(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(4)
		sigma := randSPD(r, n)
		keep := []int{0}
		c1, err := ConditionalCovariance(sigma, keep, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := ConditionalCovariance(sigma, keep, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if c2.At(0, 0) > c1.At(0, 0)+1e-9 {
			t.Fatalf("conditioning on more increased variance: %v > %v",
				c2.At(0, 0), c1.At(0, 0))
		}
		if c1.At(0, 0) > sigma.At(0, 0)+1e-9 {
			t.Fatalf("conditioning increased variance over marginal")
		}
	}
}

// Verify the Schur complement via Monte Carlo on a 3-variable normal.
func TestConditionalCovarianceMonteCarlo(t *testing.T) {
	r := rng.New(77)
	sigma := randSPD(r, 3)
	l, err := Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Sample jointly; regress X0 on X2 bucketed near a value. Instead of
	// bucketing (noisy), use the identity: residual variance of X0 after
	// subtracting the best linear predictor from X2 equals Σ_{0|2}.
	shift, err := ConditionalMeanShift(sigma, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	b := shift.At(0, 0)
	const nSamp = 200000
	var acc, acc2 float64
	z := make([]float64, 3)
	for i := 0; i < nSamp; i++ {
		for j := range z {
			z[j] = r.NormFloat64()
		}
		x := l.MulVec(z)
		res := x[0] - b*x[2]
		acc += res
		acc2 += res * res
	}
	mean := acc / nSamp
	gotVar := acc2/nSamp - mean*mean
	cc, err := ConditionalCovariance(sigma, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotVar-cc.At(0, 0)) > 0.02*cc.At(0, 0) {
		t.Fatalf("MC residual var %v vs Schur %v", gotVar, cc.At(0, 0))
	}
}

func TestConditionalMeanShiftBivariate(t *testing.T) {
	s1, s2, rho := 2.0, 3.0, 0.5
	sigma := FromRows([][]float64{
		{s1 * s1, rho * s1 * s2},
		{rho * s1 * s2, s2 * s2},
	})
	b, err := ConditionalMeanShift(sigma, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := rho * s2 / s1
	if !almostEq(b.At(0, 0), want, 1e-12) {
		t.Fatalf("mean shift = %v, want %v", b.At(0, 0), want)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !FromRows([][]float64{{1, 2}, {2, 1}}).IsSymmetric(0) {
		t.Fatal("symmetric matrix misreported")
	}
	if FromRows([][]float64{{1, 2}, {3, 1}}).IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix misreported")
	}
	if FromRows([][]float64{{1, 2, 3}}).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}
