// Package model defines the uncertain database of §2.1: a set of objects
// O = (o_1, …, o_n), each with a current (possibly wrong) value u_i, a
// cleaning cost c_i, and a random true value X_i. Object values are
// mutually independent unless the database carries an explicit error
// covariance (the correlated setting of §4.5).
package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
)

// Value is the marginal law of an object's true value. Both *dist.Discrete
// and dist.Normal satisfy it; algorithms that need more than moments
// type-assert to the concrete law they support.
type Value interface {
	Mean() float64
	Variance() float64
}

// Object is one uncertain data item.
type Object struct {
	ID      int     // position in the database, 0-based
	Name    string  // human-readable label, e.g. "adoptions/1996"
	Current float64 // u_i: the value currently in the database
	Cost    float64 // c_i: cost of cleaning (revealing the true value)
	Value   Value   // law of the true value X_i
}

// DB is an uncertain database instance.
type DB struct {
	Objects []Object
	// Cov, when non-nil, is the full covariance matrix of the true values;
	// its diagonal must agree with the marginal variances. Nil means the
	// X_i are mutually independent (the default throughout the paper).
	Cov *linalg.Matrix
}

// New assembles a database and assigns object IDs by position.
func New(objects []Object) *DB {
	db := &DB{Objects: append([]Object(nil), objects...)}
	for i := range db.Objects {
		db.Objects[i].ID = i
	}
	return db
}

// N returns the number of objects.
func (db *DB) N() int { return len(db.Objects) }

// Validate checks costs, current values, value models, and covariance
// consistency.
func (db *DB) Validate() error {
	if db.N() == 0 {
		return errors.New("model: empty database")
	}
	for i, o := range db.Objects {
		if o.ID != i {
			return fmt.Errorf("model: object %d has ID %d", i, o.ID)
		}
		if math.IsNaN(o.Cost) || o.Cost < 0 {
			return fmt.Errorf("model: object %d has invalid cost %v", i, o.Cost)
		}
		if math.IsNaN(o.Current) || math.IsInf(o.Current, 0) {
			return fmt.Errorf("model: object %d has non-finite current value %v", i, o.Current)
		}
		if o.Value == nil {
			return fmt.Errorf("model: object %d has no value model", i)
		}
		if v := o.Value.Variance(); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("model: object %d has invalid variance %v", i, v)
		}
	}
	if db.Cov != nil {
		n := db.N()
		if db.Cov.Rows != n || db.Cov.Cols != n {
			return fmt.Errorf("model: covariance is %dx%d for %d objects", db.Cov.Rows, db.Cov.Cols, n)
		}
		if !db.Cov.IsSymmetric(1e-6) {
			return errors.New("model: covariance must be symmetric")
		}
		for i := 0; i < n; i++ {
			v := db.Objects[i].Value.Variance()
			if d := db.Cov.At(i, i); d < 0 || (v > 0 && absRel(d, v) > 1e-6) {
				return fmt.Errorf("model: covariance diagonal %v disagrees with marginal variance %v at %d", d, v, i)
			}
		}
	}
	return nil
}

func absRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// SetDecayCovariance equips the database with the correlated error model
// of §4.5: Cov(i, j) = γ^|j−i|·σ_i·σ_j with σ_i = √Var[X_i] (0 when the
// variance is not positive). Neighbouring objects' errors co-move and the
// dependency fades with distance. γ^|j−i| is applied as a left-to-right
// product, σ_i·σ_j·γ·…·γ, not through math.Pow.
func (db *DB) SetDecayCovariance(gamma float64) {
	n := db.N()
	sig := make([]float64, n)
	for i, o := range db.Objects {
		if v := o.Value.Variance(); v > 0 {
			sig[i] = math.Sqrt(v)
		}
	}
	cov := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := j - i
			if d < 0 {
				d = -d
			}
			v := sig[i] * sig[j]
			for k := 0; k < d; k++ {
				v *= gamma
			}
			cov.Set(i, j, v)
		}
	}
	db.Cov = cov
}

// Covariance returns the covariance matrix of the true values: Cov when
// set, otherwise the diagonal of the marginal variances (the independent
// case). It fails when Cov is not n×n. The result aliases Cov; callers
// must not modify it.
func (db *DB) Covariance() (*linalg.Matrix, error) {
	n := db.N()
	if db.Cov != nil {
		if db.Cov.Rows != n || db.Cov.Cols != n {
			return nil, fmt.Errorf("model: covariance is %dx%d for %d objects", db.Cov.Rows, db.Cov.Cols, n)
		}
		return db.Cov, nil
	}
	cov := linalg.NewMatrix(n, n)
	for i, o := range db.Objects {
		cov.Set(i, i, o.Value.Variance())
	}
	return cov, nil
}

// Currents returns the vector u of current values.
func (db *DB) Currents() []float64 {
	out := make([]float64, db.N())
	for i, o := range db.Objects {
		out[i] = o.Current
	}
	return out
}

// Costs returns the cleaning-cost vector.
func (db *DB) Costs() []float64 {
	out := make([]float64, db.N())
	for i, o := range db.Objects {
		out[i] = o.Cost
	}
	return out
}

// Variances returns the marginal variance vector.
func (db *DB) Variances() []float64 {
	out := make([]float64, db.N())
	for i, o := range db.Objects {
		out[i] = o.Value.Variance()
	}
	return out
}

// Means returns the marginal mean vector.
func (db *DB) Means() []float64 {
	out := make([]float64, db.N())
	for i, o := range db.Objects {
		out[i] = o.Value.Mean()
	}
	return out
}

// TotalCost returns Σ c_i.
func (db *DB) TotalCost() float64 {
	var tot float64
	for _, o := range db.Objects {
		tot += o.Cost
	}
	return tot
}

// Budget returns frac·TotalCost, the budget convention used on every
// figure axis in §4.
func (db *DB) Budget(frac float64) float64 { return frac * db.TotalCost() }

// Discretes returns the per-object discrete laws, or an error if any
// object has a non-discrete value model. Exact expected-variance engines
// require finite supports.
func (db *DB) Discretes() ([]*dist.Discrete, error) {
	out := make([]*dist.Discrete, db.N())
	for i, o := range db.Objects {
		d, ok := o.Value.(*dist.Discrete)
		if !ok {
			return nil, fmt.Errorf("model: object %d (%s) is not discrete (%T)", i, o.Name, o.Value)
		}
		out[i] = d
	}
	return out, nil
}

// Normals returns the per-object normal laws and true if every object is
// normal.
func (db *DB) Normals() ([]dist.Normal, bool) {
	out := make([]dist.Normal, db.N())
	for i, o := range db.Objects {
		n, ok := o.Value.(dist.Normal)
		if !ok {
			return nil, false
		}
		out[i] = n
	}
	return out, true
}

// Discretized returns a copy of the database in which every normal value
// model is replaced by its k-point equal-probability discretization.
// Non-normal models are kept as-is. The covariance (if any) is dropped,
// matching how §4.2 feeds the CDC datasets to the discrete engines.
func (db *DB) Discretized(k int) *DB {
	objects := make([]Object, db.N())
	copy(objects, db.Objects)
	for i, o := range objects {
		if n, ok := o.Value.(dist.Normal); ok {
			objects[i].Value = n.Discretize(k)
		}
	}
	return &DB{Objects: objects}
}

// Set is a subset of object IDs, kept sorted ascending and unique.
type Set []int

// NewSet builds a canonical Set from ids.
func NewSet(ids ...int) Set {
	s := append(Set(nil), ids...)
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Has reports membership.
func (s Set) Has(id int) bool {
	i := sort.SearchInts(s, id)
	return i < len(s) && s[i] == id
}

// Add returns a new Set with id inserted.
func (s Set) Add(id int) Set {
	if s.Has(id) {
		return s
	}
	out := make(Set, 0, len(s)+1)
	i := sort.SearchInts(s, id)
	out = append(out, s[:i]...)
	out = append(out, id)
	out = append(out, s[i:]...)
	return out
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := append(Set(nil), s...)
	for _, id := range t {
		out = out.Add(id)
	}
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	for _, id := range s {
		if t.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	var out Set
	for _, id := range s {
		if !t.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// Complement returns {0..n-1} \ s.
func (s Set) Complement(n int) Set {
	out := make(Set, 0, n-len(s))
	j := 0
	for i := 0; i < n; i++ {
		if j < len(s) && s[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// Cost returns the total cleaning cost of the subset.
func (s Set) Cost(db *DB) float64 {
	var tot float64
	for _, id := range s {
		tot += db.Objects[id].Cost
	}
	return tot
}

// Clone returns a copy.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// SetKey is the memo key of a set: its ids as uvarints, a prefix-free
// encoding, so distinct sets never share a key. It is a function, not a
// method, so the root package's Set alias gains no method.
func SetKey(s Set) string {
	buf := make([]byte, 0, 2*len(s))
	for _, v := range s {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return string(buf)
}
