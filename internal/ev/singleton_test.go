package ev

import (
	"context"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

// The singleton benefits NewStateCtx returns must agree with per-object
// Delta on random instances, including instances with overlapping pairs.
func TestSingletonBenefitsMatchDelta(t *testing.T) {
	r := rng.New(31337)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		ge := mustGroup(t, db, g)
		st, got, err := ge.NewStateCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < n; o++ {
			want := -st.Delta(o)
			if want < 0 {
				want = 0
			}
			if !numeric.AlmostEqual(got[o], want, 1e-8) {
				t.Fatalf("trial %d: benefit[%d] = %v, want %v", trial, o, got[o], want)
			}
		}
	}
}

func TestSingletonBenefitsNonNegative(t *testing.T) {
	r := rng.New(99)
	db := randomDB(r, 5)
	g := randomGroupSum(r, 5)
	ge := mustGroup(t, db, g)
	_, benefits, err := ge.NewStateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benefits {
		if b < 0 {
			t.Fatalf("negative singleton benefit %v", b)
		}
	}
}
