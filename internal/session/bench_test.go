package session_test

import (
	"testing"

	"github.com/factcheck/cleansel/internal/session"
)

// BenchmarkSessionStep times one whole episode of the served session
// shape (the first two pinned episodes): NewStepper, then at every step
// what a session response reads — Status, Recommend, Current,
// Achieved, Estimate and Uncertainty — and the Reveal of the
// recommended object, until the episode is terminal. The reveals are
// drawn once, before the timer starts.
func BenchmarkSessionStep(b *testing.B) {
	for _, ep := range pinnedEpisodes(b)[:2] {
		b.Run("goal="+string(ep.goal), func(b *testing.B) {
			f, tau, r := ep.claim(b)
			var reveals []session.Reveal
			st := mustStepper(b, ep.db, f, ep.goal, tau, pinBudget)
			for st.Status(nil) == session.Active {
				rr, _ := st.Recommend(nil)
				rv := session.Reveal{Object: rr.Object, Value: ep.draw(rr.Object, r)}
				if err := st.Reveal(rv.Object, rv.Value, nil); err != nil {
					b.Fatal(err)
				}
				reveals = append(reveals, rv)
			}
			b.ReportAllocs()
			for b.Loop() {
				st := mustStepper(b, ep.db, f, ep.goal, tau, pinBudget)
				for step := 0; ; step++ {
					st.Status(nil)
					_, ok := st.Recommend(nil)
					st.Current()
					st.Achieved()
					st.Estimate()
					st.Uncertainty()
					if !ok {
						break
					}
					if err := st.Reveal(reveals[step].Object, reveals[step].Value, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
