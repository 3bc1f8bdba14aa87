package linalg

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// mul returns the product a·b, for building and checking fixtures.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// randSPD builds a random symmetric positive definite n×n matrix A·Aᵀ + I.
func randSPD(r *rng.RNG, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.Uniform(-1, 1)
	}
	spd := mul(a, a.T())
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

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
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
		back := mul(l, l.T())
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
	prod := mul(m, inv)
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

// The conditional covariance of a normal vector given the rest is the
// inverse of its block of the precision matrix Q = Σ⁻¹; its mean shifts
// by −Q_kk⁻¹·Q_kc per unit of the conditioning values. The tests below
// check these identities, which maxpr's conditional MVNAffine is built
// on, through InverseSPD.

// A 2-var normal's conditional variance 1/Q_11 matches the textbook
// formula σ2²(1−ρ²).
func TestConditionalCovarianceBivariate(t *testing.T) {
	s1, s2, rho := 2.0, 3.0, 0.6
	sigma := FromRows([][]float64{
		{s1 * s1, rho * s1 * s2},
		{rho * s1 * s2, s2 * s2},
	})
	q, err := InverseSPD(sigma)
	if err != nil {
		t.Fatal(err)
	}
	want := s2 * s2 * (1 - rho*rho)
	if got := 1 / q.At(1, 1); !almostEq(got, want, 1e-12) {
		t.Fatalf("conditional var = %v, want %v", got, want)
	}
}

// With nothing conditioned on, inverting the precision matrix gives the
// marginal covariance back.
func TestConditionalCovarianceEmptyCond(t *testing.T) {
	sigma := FromRows([][]float64{{4, 1}, {1, 9}})
	q, err := InverseSPD(sigma)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InverseSPD(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sigma.Data {
		if !almostEq(back.Data[i], v, 1e-12) {
			t.Fatalf("(Σ⁻¹)⁻¹ = %v, want %v", back.Data, sigma.Data)
		}
	}
}

// condVar0 returns Var[X_0 | X_1, …, X_{k−1}] for a normal vector with
// covariance sigma: 1/(Σ_SS⁻¹)_00 over the leading block S = {0, …, k−1}.
func condVar0(t *testing.T, sigma *Matrix, k int) float64 {
	t.Helper()
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	q, err := InverseSPD(sigma.Submatrix(s, s))
	if err != nil {
		t.Fatal(err)
	}
	return 1 / q.At(0, 0)
}

// Property: conditioning on more variables never increases the conditional
// variance of the remaining ones.
func TestConditioningShrinksVariance(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(4)
		sigma := randSPD(r, n)
		c1, c2 := condVar0(t, sigma, 2), condVar0(t, sigma, 3)
		if c2 > c1+1e-9 {
			t.Fatalf("conditioning on more increased variance: %v > %v", c2, c1)
		}
		if c1 > sigma.At(0, 0)+1e-9 {
			t.Fatalf("conditioning increased variance over marginal")
		}
	}
}

// Verify the precision identity via Monte Carlo on a 3-variable normal:
// the residual of X0 after its best linear predictor from X2,
// b = −Q_02/Q_00 with Q the precision of the (X0, X2) block, has
// variance 1/Q_00.
func TestConditionalCovarianceMonteCarlo(t *testing.T) {
	r := rng.New(77)
	sigma := randSPD(r, 3)
	l, err := Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	q, err := InverseSPD(sigma.Submatrix([]int{0, 2}, []int{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	b := -q.At(0, 1) / q.At(0, 0)
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
	if want := 1 / q.At(0, 0); math.Abs(gotVar-want) > 0.02*want {
		t.Fatalf("MC residual var %v vs precision %v", gotVar, want)
	}
}

// A 2-var normal's conditional mean shift −Q_10/Q_11 matches the
// textbook regression slope ρ·σ2/σ1.
func TestConditionalMeanShiftBivariate(t *testing.T) {
	s1, s2, rho := 2.0, 3.0, 0.5
	sigma := FromRows([][]float64{
		{s1 * s1, rho * s1 * s2},
		{rho * s1 * s2, s2 * s2},
	})
	q, err := InverseSPD(sigma)
	if err != nil {
		t.Fatal(err)
	}
	want := rho * s2 / s1
	if got := -q.At(1, 0) / q.At(1, 1); !almostEq(got, want, 1e-12) {
		t.Fatalf("mean shift = %v, want %v", got, want)
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
