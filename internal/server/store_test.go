package server

import (
	"testing"

	"github.com/factcheck/cleansel/internal/server/wire"
)

func toyDataset(name string, current float64) wire.Dataset {
	return wire.Dataset{
		Name: name,
		Objects: []wire.Object{
			{Name: "x", Current: current, Cost: 1, Values: []float64{current - 1, current, current + 1}, Probs: []float64{1, 1, 1}},
		},
	}
}

func TestStoreContentAddressing(t *testing.T) {
	s := newDatasetStore(4, 0, nil, nil, nil, nil)
	a, err := s.Add(toyDataset("first", 10))
	if err != nil {
		t.Fatal(err)
	}
	// Same objects, different label: IDs must agree (content-addressed),
	// the compiled database is reused, and the latest name wins.
	b, err := s.Add(toyDataset("second", 10))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("identical objects got different ids: %s vs %s", a.ID, b.ID)
	}
	if b.Name != "second" || b.DB != a.DB {
		t.Fatalf("re-upload should refresh the name and share the db: %+v", b)
	}
	if got, _ := s.Get(a.ID); got.Name != "second" {
		t.Fatalf("stored name not refreshed: %q", got.Name)
	}
	c, err := s.Add(toyDataset("third", 99))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("different objects share an id")
	}
	got, ok := s.Get(a.ID)
	if !ok || got.Objects != 1 || got.DB == nil {
		t.Fatalf("lookup failed: %+v, %v", got, ok)
	}
}

func TestStoreEvictsBeyondCapacity(t *testing.T) {
	s := newDatasetStore(2, 0, nil, nil, nil, nil)
	a, _ := s.Add(toyDataset("a", 1))
	s.Add(toyDataset("b", 2))
	s.Add(toyDataset("c", 3))
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("oldest dataset survived past capacity")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreRejectsInvalidDataset(t *testing.T) {
	s := newDatasetStore(2, 0, nil, nil, nil, nil)
	if _, err := s.Add(wire.Dataset{Objects: []wire.Object{{Name: "x"}}}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("invalid dataset stored: Len = %d", s.Len())
	}
}
