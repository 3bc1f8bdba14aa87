package datasets

import (
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
)

func TestAdoptionsGiulianiProperty(t *testing.T) {
	if len(AdoptionsCounts) != 26 || len(AdoptionsYears) != 26 {
		t.Fatalf("adoptions should span 1989–2014: %d values", len(AdoptionsCounts))
	}
	if AdoptionsYears[0] != 1989 || AdoptionsYears[25] != 2014 {
		t.Fatalf("year range wrong: %v..%v", AdoptionsYears[0], AdoptionsYears[25])
	}
	// The claim: adoptions went up 65–70% between 1990–1995 and 1996–2001.
	var early, late float64
	for i, y := range AdoptionsYears {
		if y >= 1990 && y <= 1995 {
			early += AdoptionsCounts[i]
		}
		if y >= 1996 && y <= 2001 {
			late += AdoptionsCounts[i]
		}
	}
	rise := (late - early) / early
	if rise < 0.65 || rise > 0.70 {
		t.Fatalf("Giuliani property violated: rise = %.3f, want within [0.65, 0.70]", rise)
	}
}

func TestAdoptionsDB(t *testing.T) {
	db := Adoptions(1)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.N() != 26 {
		t.Fatalf("N = %d", db.N())
	}
	ns, ok := db.Normals()
	if !ok {
		t.Fatal("adoptions values should be normal")
	}
	for i, nd := range ns {
		if nd.Sigma < 1 || nd.Sigma > 50 {
			t.Fatalf("sigma %v out of [1,50]", nd.Sigma)
		}
		if nd.Mu != AdoptionsCounts[i] || db.Objects[i].Current != AdoptionsCounts[i] {
			t.Fatalf("object %d not centered at reported value", i)
		}
		if c := db.Objects[i].Cost; c < 1 || c > 100 {
			t.Fatalf("cost %v out of [1,100]", c)
		}
	}
	// Determinism.
	db2 := Adoptions(1)
	for i := range db.Objects {
		if db.Objects[i].Cost != db2.Objects[i].Cost {
			t.Fatal("same seed should give same costs")
		}
	}
	db3 := Adoptions(2)
	same := true
	for i := range db.Objects {
		if db.Objects[i].Cost != db3.Objects[i].Cost {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical costs")
	}
}

func TestCDCFirearmsDB(t *testing.T) {
	db := CDCFirearms(7)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.N() != 17 {
		t.Fatalf("N = %d", db.N())
	}
	if len(FirearmsEstimates) != 17 || len(FirearmsSE) != 17 {
		t.Fatal("firearms series must have 17 years")
	}
	// Large CVs, as CDC publishes for firearms.
	for i := range FirearmsEstimates {
		cv := FirearmsSE[i] / FirearmsEstimates[i]
		if cv < 0.10 || cv > 0.35 {
			t.Fatalf("firearms CV %v out of expected band at year %d", cv, CDCYears[i])
		}
	}
	// Recency cost model: 2001 in [195,200], 2017 in [115,120], decreasing.
	c2001 := db.Objects[0].Cost
	c2017 := db.Objects[16].Cost
	if c2001 < 195 || c2001 > 200 {
		t.Fatalf("2001 cost %v", c2001)
	}
	if c2017 < 115 || c2017 > 120 {
		t.Fatalf("2017 cost %v", c2017)
	}
	for i := 1; i < db.N(); i++ {
		if db.Objects[i].Cost >= db.Objects[i-1].Cost+5 {
			t.Fatalf("costs should trend down with recency: %v then %v",
				db.Objects[i-1].Cost, db.Objects[i].Cost)
		}
	}
}

func TestCDCCausesDB(t *testing.T) {
	db := CDCCauses(3)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.N() != 68 {
		t.Fatalf("N = %d, want 68", db.N())
	}
	// Index helper round-trips with names.
	id := CDCCausesIndex(Drowning, 4) // drowning 2005
	if got := db.Objects[id].Name; got != "drowning/2005" {
		t.Fatalf("index helper points at %q", got)
	}
	// The §4.1 claim premise: transportation is roughly 30% of all other
	// causes combined in the last two years.
	var transport, others float64
	for _, yi := range []int{15, 16} {
		transport += TransportationEstimates[yi]
		others += FirearmsEstimates[yi] + DrowningEstimates[yi] + FallsEstimates[yi]
	}
	ratio := transport / others
	if ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("transportation/others = %.3f, want near 0.3", ratio)
	}
}

func TestSyntheticGenerators(t *testing.T) {
	for _, kind := range []SyntheticKind{UR, LN, SM} {
		db := Synthetic(kind, 40, 11)
		if err := db.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if db.N() != 40 {
			t.Fatalf("%v: N = %d", kind, db.N())
		}
		ds, err := db.Discretes()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for i, d := range ds {
			if d.Size() < 1 || d.Size() > MaxSupport {
				t.Fatalf("%v: support size %d", kind, d.Size())
			}
			if c := db.Objects[i].Cost; c < 1 || c > 10 || c != float64(int(c)) {
				t.Fatalf("%v: cost %v not an integer in [1,10]", kind, c)
			}
			// Current value must lie in the support.
			found := false
			for _, v := range d.Values {
				if v == db.Objects[i].Current {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v: current value %v outside support", kind, db.Objects[i].Current)
			}
		}
	}
}

func TestURxValueRange(t *testing.T) {
	db := URx(60, 5)
	ds, _ := db.Discretes()
	for _, d := range ds {
		for _, v := range d.Values {
			if v < 1 || v > 100 || v != float64(int(v)) {
				t.Fatalf("URx value %v not an integer in [1,100]", v)
			}
		}
	}
}

func TestLNxSmallRange(t *testing.T) {
	// LNx values live on the exp scale of a σ ≤ 1 normal: far smaller
	// range than URx's [1,100].
	db := LNx(60, 5)
	ds, _ := db.Discretes()
	for _, d := range ds {
		for _, v := range d.Values {
			if v <= 0 || v > 60 {
				t.Fatalf("LNx value %v outside plausible log-normal range", v)
			}
		}
	}
}

func TestSMxSpikyProbabilities(t *testing.T) {
	db := SMx(80, 5)
	ds, _ := db.Discretes()
	raw := 0
	for _, d := range ds {
		if d.Size() < 2 {
			continue
		}
		// Normalized probabilities hide the raw spikes, but the ratio of
		// max to min raw weights survives normalization. Expect many
		// objects with a large spread.
		mx, mn := 0.0, 1.0
		for _, p := range d.Probs {
			if p > mx {
				mx = p
			}
			if p < mn {
				mn = p
			}
		}
		if mx/mn > 3 {
			raw++
		}
	}
	if raw < 10 {
		t.Fatalf("SMx lost its spiky shape: only %d spiky objects", raw)
	}
}

func TestNames(t *testing.T) {
	db := CDCCauses(1)
	for _, o := range db.Objects {
		if !strings.Contains(o.Name, "/") {
			t.Fatalf("name %q not cause/year", o.Name)
		}
	}
	if Firearms.String() != "firearms" || Falls.String() != "falls" {
		t.Fatal("cause names wrong")
	}
	if UR.String() != "URx" || LN.String() != "LNx" || SM.String() != "SMx" {
		t.Fatal("synthetic names wrong")
	}
}

// The CDC discretization path used by Fig. 2: discretized firearms
// database keeps means and equal-probability atoms.
func TestCDCDiscretizedForUniqueness(t *testing.T) {
	db := CDCFirearms(1).Discretized(6)
	ds, err := db.Discretes()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d.Size() != 6 {
			t.Fatalf("object %d: %d atoms", i, d.Size())
		}
		if diff := d.Mean() - FirearmsEstimates[i]; diff > 1 || diff < -1 {
			t.Fatalf("object %d: discretized mean off by %v", i, diff)
		}
	}
	var _ model.Value = (*dist.Discrete)(nil)
}
