package expt

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"adaptive", "counters", "fig1", "fig10", "fig11", "fig12",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "thm39"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Small, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunHonoursCancelledContext: every runner stops at its first
// solve under a cancelled context and returns its error with no
// figures.
func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			figs, err := RunContext(ctx, id, Small, 1)
			if !errors.Is(err, context.Canceled) || figs != nil {
				t.Fatalf("got %d figures and error %v, want none and context.Canceled", len(figs), err)
			}
		})
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("paper"); err != nil || s != PaperScale {
		t.Fatal("paper scale")
	}
	if s, err := ParseScale(""); err != nil || s != Small {
		t.Fatal("default scale")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig := &Figure{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{0, 1}, {1, 2}}},
			{Name: "b", Points: []Point{{0, 3}}},
		},
		Notes: []string{"note1"},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# demo — Demo", "note1", "a", "b", "1", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo,a,1,2") {
		t.Fatalf("csv wrong:\n%s", buf.String())
	}
}

// wallClockFigures time the solvers, so their renderings differ from run
// to run and have no golden.
var wallClockFigures = map[string]bool{"fig10a": true, "fig10b": true}

// checkFigure validates structural invariants shared by every runner and
// compares the rendering, which must come from Small scale and seed 42,
// with testdata/<id>.golden.
func checkFigure(t *testing.T, fig *Figure) {
	t.Helper()
	if fig.ID == "" || fig.Title == "" {
		t.Fatalf("figure missing identity: %+v", fig)
	}
	if len(fig.Series) == 0 {
		t.Fatalf("%s: no series", fig.ID)
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s/%s: empty series", fig.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Y != p.Y {
				t.Fatalf("%s/%s: NaN at x=%v", fig.ID, s.Name, p.X)
			}
		}
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatalf("%s: render: %v", fig.ID, err)
	}
	if wallClockFigures[fig.ID] {
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", fig.ID+".golden"))
	if err != nil {
		t.Fatalf("%s: %v", fig.ID, err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("%s drifted from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s", fig.ID, fig.ID, got, want)
	}
}

// monotoneNonIncreasing verifies a MinVar curve never rises with budget.
func monotoneNonIncreasing(t *testing.T, fig *Figure, name string) {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name != name {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y+1e-6 {
				t.Fatalf("%s/%s: objective rose from %v to %v at budget %v",
					fig.ID, name, s.Points[i-1].Y, s.Points[i].Y, s.Points[i].X)
			}
		}
	}
}

func TestFig1Small(t *testing.T) {
	figs, err := Run("fig1", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 { // 1a, 1b (zoom), 1c, 1d
		t.Fatalf("fig1 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		monotoneNonIncreasing(t, f, "Optimum")
		monotoneNonIncreasing(t, f, "GreedyMinVar")
	}
	// Optimum dominates or ties every other algorithm pointwise.
	fig := figs[0]
	var opt Series
	for _, s := range fig.Series {
		if s.Name == "Optimum" {
			opt = s
		}
	}
	for _, s := range fig.Series {
		for i := range s.Points {
			if opt.Points[i].Y > s.Points[i].Y+1e-6 {
				t.Fatalf("Optimum (%v) worse than %s (%v) at budget %v",
					opt.Points[i].Y, s.Name, s.Points[i].Y, s.Points[i].X)
			}
		}
	}
	// At full budget every algorithm removes all uncertainty.
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		if last.X == 1 && last.Y > 1e-6 {
			t.Fatalf("%s left variance %v at full budget", s.Name, last.Y)
		}
	}
}

func TestFig2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CDC uniqueness sweep in -short mode (~4s)")
	}
	figs, err := Run("fig2", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig2 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		monotoneNonIncreasing(t, f, "GreedyMinVar")
		// All series end at (nearly) zero uncertainty.
		for _, s := range f.Series {
			last := s.Points[len(s.Points)-1]
			if last.Y > 1e-6 {
				t.Fatalf("%s/%s left variance %v at full budget", f.ID, s.Name, last.Y)
			}
		}
	}
}

func TestFig3Small(t *testing.T) {
	figs, err := Run("fig3", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 { // small scale halves the Γ grid
		t.Fatalf("fig3 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		monotoneNonIncreasing(t, f, "GreedyMinVar")
	}
}

func TestFig4And5Small(t *testing.T) {
	for _, id := range []string{"fig4", "fig5"} {
		figs, err := Run(id, Small, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 3 {
			t.Fatalf("%s produced %d figures", id, len(figs))
		}
		for _, f := range figs {
			checkFigure(t, f)
			monotoneNonIncreasing(t, f, "GreedyMinVar")
		}
	}
}

func TestFig10Small(t *testing.T) {
	figs, err := Run("fig10", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig10 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		for _, s := range f.Series {
			// The spread series (max-min over repetitions) may be ~0 on a
			// quiet machine; medians must be strictly positive.
			for _, p := range s.Points {
				if s.Name == "spread (max-min)" {
					if p.Y < 0 {
						t.Fatalf("%s: negative spread %v", f.ID, p.Y)
					}
					continue
				}
				if p.Y <= 0 {
					t.Fatalf("%s: non-positive timing %v", f.ID, p.Y)
				}
			}
		}
	}
	// fig10b: larger n must not be faster than the smallest n by a wide
	// margin (coarse sanity on the scaling measurement).
	b := figs[1].Series[0]
	if b.Points[len(b.Points)-1].Y < b.Points[0].Y/2 {
		t.Fatalf("timing shrank with data size: %v", b.Points)
	}
}

func TestFig6Small(t *testing.T) {
	figs, err := Run("fig6", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		checkFigure(t, f)
		// Improvements can be 0 but never meaningfully negative at any
		// budget where GreedyMinVar is exact... they CAN be slightly
		// negative in adversarial ties; just require boundedness.
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Y < -1 {
					t.Fatalf("%s/%s: improvement %v suspiciously negative", f.ID, s.Name, p.Y)
				}
			}
		}
	}
}

func TestFig8Small(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in-action sweep in -short mode (~4s)")
	}
	figs, err := Run("fig8", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatal("fig8 should produce mean and std figures")
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// At full budget the posterior std must be 0 and the mean must equal
	// the true duplicity for every algorithm.
	std := figs[1]
	for _, s := range std.Series {
		last := s.Points[len(s.Points)-1]
		if last.Y > 1e-9 {
			t.Fatalf("posterior std %v nonzero at full budget", last.Y)
		}
	}
}

func TestFig11Small(t *testing.T) {
	figs, err := Run("fig11", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig11 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// OPT dominates every other series pointwise in fig11a.
	fig := figs[0]
	var opt Series
	for _, s := range fig.Series {
		if s.Name == "OPT" {
			opt = s
		}
	}
	if opt.Name == "" {
		t.Fatal("fig11a missing OPT")
	}
	for _, s := range fig.Series {
		for i := range s.Points {
			if opt.Points[i].Y > s.Points[i].Y+1e-6 {
				t.Fatalf("OPT (%v) worse than %s (%v) at budget %v",
					opt.Points[i].Y, s.Name, s.Points[i].Y, s.Points[i].X)
			}
		}
	}
}

func TestFig12Small(t *testing.T) {
	figs, err := Run("fig12", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig12 produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// In fig12a the MinVar optimizer must dominate on its own objective;
	// in fig12b the MaxPr optimizer must dominate on its own objective.
	a, b := figs[0], figs[1]
	for i := range a.Series[0].Points {
		if a.Series[0].Points[i].Y > a.Series[1].Points[i].Y+1e-6 {
			t.Fatalf("fig12a: Optimum worse than GreedyMaxPr on MinVar at %v",
				a.Series[0].Points[i].X)
		}
	}
	for i := range b.Series[0].Points {
		if b.Series[1].Points[i].Y < b.Series[0].Points[i].Y-1e-6 {
			t.Fatalf("fig12b: GreedyMaxPr (%v) worse than Optimum (%v) at %v",
				b.Series[1].Points[i].Y, b.Series[0].Points[i].Y, b.Series[1].Points[i].X)
		}
	}
}

func TestThm39Small(t *testing.T) {
	figs, err := Run("thm39", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	checkFigure(t, fig)
	// γ=0 (independent) must align 100% under both semantics.
	for _, s := range fig.Series {
		if s.Points[0].X != 0 {
			t.Fatalf("first gamma should be 0: %v", s.Points[0].X)
		}
		if s.Points[0].Y != 1 {
			t.Fatalf("%s: independent case alignment = %v, want 1", s.Name, s.Points[0].Y)
		}
	}
}

func TestCountersSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping counter-example sweep in -short mode (~17s)")
	}
	figs, err := Run("counters", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("counters produced %d figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		if len(f.Notes) < 2 {
			t.Fatalf("%s: missing confidence notes", f.ID)
		}
	}
}

func TestFig7Small(t *testing.T) {
	figs, err := Run("fig7", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		checkFigure(t, f)
		monotoneNonIncreasing(t, f, "GreedyMinVar")
	}
}

func TestFig9Small(t *testing.T) {
	figs, err := Run("fig9", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
}

// TestAdaptiveGolden pins the adaptive figure at paper scale, seed 42,
// to testdata/adaptive-paper.golden; the Small run is pinned by
// checkFigure in TestAdaptiveSmall. Paper scale simulates 300 truths
// instead of 60 and still renders in well under a second.
func TestAdaptiveGolden(t *testing.T) {
	figs, err := Run("adaptive", PaperScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := figs[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "adaptive-paper.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("paper-scale adaptive figure drifted from testdata/adaptive-paper.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestAdaptiveSmall(t *testing.T) {
	figs, err := Run("adaptive", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	checkFigure(t, fig)
	// Counter rates are probabilities and non-decreasing in budget for the
	// adaptive policy (more budget can only help a stopping policy).
	for _, s := range fig.Series {
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("%s: rate %v out of [0,1]", s.Name, p.Y)
			}
			if s.Name == "AdaptiveMaxPr" {
				if p.Y < prev-1e-9 {
					t.Fatalf("adaptive counter rate decreased: %v after %v", p.Y, prev)
				}
				prev = p.Y
			}
		}
	}
}
