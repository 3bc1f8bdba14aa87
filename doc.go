// Package cleansel decides which uncertain values a fact-checker should
// clean under a cost budget, implementing
//
//	Sintos, Agarwal, Yang. "Selecting Data to Clean for Fact Checking:
//	Minimizing Uncertainty vs. Maximizing Surprise." (VLDB 2019)
//
// A claim is a (linear) query over a database of uncertain values. Its
// quality is assessed against a set of perturbations — nearby variants of
// the claim weighted by sensibility — through three measures: fairness
// (bias), uniqueness (duplicity), and robustness (fragility). Cleaning a
// value reveals its true realization at a cost. Two selection objectives
// compete:
//
//   - MinVar: minimize the expected variance remaining in a quality
//     measure after cleaning — ascertain the claim's quality.
//   - MaxPr: maximize the probability that cleaning shifts the measure
//     enough to expose a counterargument — counter the claim.
//
// The top-level API mirrors that workflow:
//
//	db := cleansel.NewDB([]cleansel.Object{...})
//	orig := cleansel.WindowComparison("claim", 0, 4, 4)
//	set, _ := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger, ref, perturbs)
//	res, _ := cleansel.Select(cleansel.Task{
//	    DB: db, Claims: set,
//	    Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
//	    Algorithm: cleansel.AlgoGreedy, Budget: db.Budget(0.2),
//	})
//	fmt.Println(res.Chosen, res.Before, res.After)
//
// Select, RankObjects, and AssessClaim have context-aware variants
// (SelectContext, RankObjectsContext or RankContext, AssessClaimContext)
// that cancel cooperatively when the context is done — the form a
// serving layer should call. Solvers fan their per-object enumeration
// out over a bounded worker pool sized by GOMAXPROCS (override with
// the CLEANSEL_WORKERS environment variable); results are
// bit-identical for every worker count.
//
// The embedded evaluation datasets (Adoptions, CDC-firearms, CDC-causes)
// and the paper's synthetic generators (URx, LNx, SMx) are exposed for
// experimentation, and cmd/repro regenerates every figure of the paper's
// evaluation section.
//
// Beyond the library, cmd/cleansel solves one selection problem from a
// JSON specification, and cmd/cleanseld serves the same wire format over
// HTTP/JSON (POST /v1/select, /v1/rank, /v1/assess, with uploaded
// datasets and an LRU result cache) for long-running deployments; see
// the README for endpoint documentation and curl examples.
package cleansel
