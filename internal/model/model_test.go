package model

import (
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/numeric"
)

func sampleDB() *DB {
	return New([]Object{
		{Name: "a", Current: 10, Cost: 1, Value: dist.UniformOver([]float64{9, 10, 11})},
		{Name: "b", Current: 20, Cost: 2, Value: dist.PointMass(20)},
		{Name: "c", Current: 30, Cost: 3, Value: dist.MustDiscrete([]float64{29, 31}, []float64{0.5, 0.5})},
	})
}

func TestNewAssignsIDs(t *testing.T) {
	db := sampleDB()
	for i, o := range db.Objects {
		if o.ID != i {
			t.Fatalf("object %d has ID %d", i, o.ID)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	if err := (&DB{}).Validate(); err == nil {
		t.Fatal("empty DB validated")
	}
	db := sampleDB()
	db.Objects[1].Cost = -1
	if err := db.Validate(); err == nil {
		t.Fatal("negative cost validated")
	}
	db = sampleDB()
	db.Objects[0].Value = nil
	if err := db.Validate(); err == nil {
		t.Fatal("nil value model validated")
	}
	db = sampleDB()
	db.Cov = linalg.NewMatrix(2, 2)
	if err := db.Validate(); err == nil {
		t.Fatal("wrong-size covariance validated")
	}
	db = sampleDB()
	db.Cov = linalg.FromRows([][]float64{
		{99, 0, 0}, // disagrees with Var[a] = 2/3
		{0, 0, 0},
		{0, 0, 1},
	})
	if err := db.Validate(); err == nil {
		t.Fatal("inconsistent covariance diagonal validated")
	}
}

// Covariance is Cov when set, or the diagonal of the marginal variances;
// a Cov of the wrong size is an error, not an index panic downstream.
func TestCovariance(t *testing.T) {
	db := sampleDB()
	cov, err := db.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range db.Variances() {
		for j := 0; j < db.N(); j++ {
			want := 0.0
			if i == j {
				want = v
			}
			if cov.At(i, j) != want {
				t.Fatalf("Covariance()[%d][%d] = %v, want %v", i, j, cov.At(i, j), want)
			}
		}
	}
	db.SetDecayCovariance(0.5)
	if cov, err := db.Covariance(); err != nil || cov != db.Cov {
		t.Fatalf("Covariance() = %p, %v; want Cov %p", cov, err, db.Cov)
	}
	db.Cov = linalg.NewMatrix(2, 2)
	if _, err := db.Covariance(); err == nil {
		t.Fatal("wrong-size covariance accepted")
	}
}

func TestVectors(t *testing.T) {
	db := sampleDB()
	if got := db.Currents(); got[0] != 10 || got[2] != 30 {
		t.Fatalf("currents %v", got)
	}
	if got := db.Costs(); got[1] != 2 {
		t.Fatalf("costs %v", got)
	}
	if got := db.Variances(); !numeric.AlmostEqual(got[0], 2.0/3.0, 1e-12) || got[1] != 0 || got[2] != 1 {
		t.Fatalf("variances %v", got)
	}
	if got := db.Means(); got[1] != 20 || got[2] != 30 {
		t.Fatalf("means %v", got)
	}
	if db.TotalCost() != 6 {
		t.Fatalf("total cost %v", db.TotalCost())
	}
	if db.Budget(0.5) != 3 {
		t.Fatalf("budget %v", db.Budget(0.5))
	}
}

func TestDiscretes(t *testing.T) {
	db := sampleDB()
	ds, err := db.Discretes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || ds[1].Size() != 1 {
		t.Fatal("discretes wrong")
	}
	n, _ := dist.NewNormal(0, 1)
	db.Objects[0].Value = n
	if _, err := db.Discretes(); err == nil {
		t.Fatal("normal object should fail Discretes")
	}
}

func TestNormalsAndDiscretized(t *testing.T) {
	n1, _ := dist.NewNormal(10, 2)
	n2, _ := dist.NewNormal(20, 3)
	db := New([]Object{
		{Name: "a", Current: 10, Cost: 1, Value: n1},
		{Name: "b", Current: 20, Cost: 1, Value: n2},
	})
	ns, ok := db.Normals()
	if !ok || ns[1].Sigma != 3 {
		t.Fatal("Normals failed")
	}
	dd := db.Discretized(4)
	ds, err := dd.Discretes()
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Size() != 4 {
		t.Fatalf("discretized size %d", ds[0].Size())
	}
	if !numeric.AlmostEqual(ds[0].Mean(), 10, 1e-9) {
		t.Fatalf("discretized mean %v", ds[0].Mean())
	}
	// Mixed DB: Normals reports false.
	db.Objects[0].Value = dist.PointMass(1)
	if _, ok := db.Normals(); ok {
		t.Fatal("mixed DB should not report all-normal")
	}
}

func TestSetOps(t *testing.T) {
	s := NewSet(3, 1, 3, 2)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("NewSet canon: %v", s)
	}
	if !s.Has(2) || s.Has(0) {
		t.Fatal("Has broken")
	}
	s2 := s.Add(0)
	if len(s2) != 4 || s2[0] != 0 {
		t.Fatalf("Add: %v", s2)
	}
	if len(s) != 3 {
		t.Fatal("Add mutated receiver")
	}
	if got := s.Add(2); len(got) != 3 {
		t.Fatal("Add existing changed size")
	}
	u := NewSet(1, 5).Union(NewSet(2, 5))
	if len(u) != 3 || !u.Has(2) {
		t.Fatalf("Union: %v", u)
	}
	i := NewSet(1, 2, 3).Intersect(NewSet(2, 3, 4))
	if len(i) != 2 || !i.Has(2) || !i.Has(3) {
		t.Fatalf("Intersect: %v", i)
	}
	m := NewSet(1, 2, 3).Minus(NewSet(2))
	if len(m) != 2 || m.Has(2) {
		t.Fatalf("Minus: %v", m)
	}
	c := NewSet(0, 2).Complement(4)
	if len(c) != 2 || !c.Has(1) || !c.Has(3) {
		t.Fatalf("Complement: %v", c)
	}
}

func TestSetCost(t *testing.T) {
	db := sampleDB()
	if got := NewSet(0, 2).Cost(db); got != 4 {
		t.Fatalf("cost %v", got)
	}
	if got := Set(nil).Cost(db); got != 0 {
		t.Fatalf("empty cost %v", got)
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet(1, 2)
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone aliases")
	}
}

// TestSetKeyDistinguishesWideIDs pins the memo key of every set-function
// cache: ids that agree in their low 24 bits must still key different
// sets.
func TestSetKeyDistinguishesWideIDs(t *testing.T) {
	if a, b := SetKey(Set{1}), SetKey(Set{1 + 1<<24}); a == b {
		t.Fatalf("SetKey({1}) == SetKey({1+2^24}) == %q", a)
	}
}
