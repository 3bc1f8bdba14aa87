// Package linalg implements the small amount of dense linear algebra the
// library needs to model correlated data errors: symmetric matrices,
// Cholesky factorization, SPD solves and inverses. A multivariate normal's
// conditional law is built from these by its callers: ev conditions on
// the cleaned block through Σ_TT, maxpr on the uncleaned values through
// the precision matrix Σ⁻¹. It is written for clarity at the problem
// sizes of the paper (tens to hundreds of variables), not BLAS-level
// speed.
package linalg

import (
	"errors"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j]
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (all rows must share a length).
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m·x for a column vector x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Submatrix extracts rows ri and columns ci (index lists, in order).
func (m *Matrix) Submatrix(ri, ci []int) *Matrix {
	out := NewMatrix(len(ri), len(ci))
	for a, i := range ri {
		for b, j := range ci {
			out.Set(a, b, m.At(i, j))
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// ErrNotPD is returned when a Cholesky factorization encounters a pivot
// that is not positive.
var ErrNotPD = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = m. It returns
// ErrNotPD if m is not (numerically) positive definite.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("linalg: Cholesky of non-square matrix")
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPD
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

// SolveSPD solves m·x = b for symmetric positive definite m via Cholesky.
func SolveSPD(m *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	return solveChol(l, b), nil
}

// solveChol solves L·Lᵀ·x = b given the Cholesky factor L.
func solveChol(l *Matrix, b []float64) []float64 {
	n := l.Rows
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// InverseSPD returns the inverse of a symmetric positive definite matrix.
func InverseSPD(m *Matrix) (*Matrix, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	n := m.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := solveChol(l, e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// QuadForm returns xᵀ·m·x.
func QuadForm(m *Matrix, x []float64) float64 {
	if m.Rows != len(x) || m.Cols != len(x) {
		panic("linalg: QuadForm dimension mismatch")
	}
	var total float64
	for i := 0; i < m.Rows; i++ {
		var row float64
		for j := 0; j < m.Cols; j++ {
			row += m.At(i, j) * x[j]
		}
		total += x[i] * row
	}
	return total
}
