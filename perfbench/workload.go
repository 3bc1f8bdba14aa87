package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/expt"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/rng"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// reqKind tells the client how to send and check one request.
type reqKind int

const (
	kindSelect reqKind = iota
	kindTriage
	kindCreate // POST /v1/sessions
	kindClean  // POST /v1/sessions/{id}/clean
	kindDelete // DELETE /v1/sessions/{id}
)

// request is one HTTP request of a stream, with what a correct daemon
// answers to it.
type request struct {
	kind   reqKind
	method string
	path   string // session paths hold sessionSlot where the id goes
	body   []byte
	ops    int // ops the request counts for: 1, or the claims of a batch

	// want is the SHA-256 of the correct response body, with a session
	// id blanked to "". It is filled by expect (timed runs) or by the
	// replay (traced runs), except for session requests, whose answers
	// the generator computes while it builds the episode.
	want [32]byte
	// status is the session status a session request must leave; claims
	// and unique are a triage batch's size and distinct-claim count.
	status         string
	claims, unique int
}

// sessionSlot marks where a session request's path takes the id the
// daemon assigned at create time.
const sessionSlot = "{id}"

// uploadReq is a set-up request: a dataset the workload's requests
// refer to by id.
type uploadReq struct {
	path    string
	body    []byte
	objects []wire.Object
}

// stream is the fixed input of one run: set-up uploads, warm-up
// requests, and the timed requests, all generated from the seed.
type stream struct {
	uploads []uploadReq
	warm    []request
	reqs    []request
	ops     int
}

// workload describes how one workload sizes and generates its stream.
type workload struct {
	name string
	// rate is the nominal op rate the request count is sized by: a run
	// of s seconds issues round(s·rate/unitOps) units of work (solves,
	// batches, or episodes), a constant independent of how fast the
	// machine is, so every run of a seed does identical work.
	rate float64
	// unitOps is the number of ops one unit of work is sized as.
	unitOps int
	// gen builds the uploads and a request generator over dataset ids.
	gen func(seed uint64, units, warm int) (*generator, error)
}

// generator holds a workload's uploads and builds its requests once the
// daemon has assigned dataset ids.
type generator struct {
	uploads []uploadReq
	build   func(ids []string) (warm, reqs []request, err error)
}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]*workload{
	"select_minvar":    {name: "select_minvar", rate: 60, unitOps: 1, gen: genSelectMinVar},
	"select_maxpr":     {name: "select_maxpr", rate: 22, unitOps: 1, gen: genSelectMaxPr},
	"triage_stream":    {name: "triage_stream", rate: 2100, unitOps: triageClaims, gen: genTriage},
	"session_episodes": {name: "session_episodes", rate: 3500, unitOps: 8, gen: genSessions},
}

// units returns the number of work units a run of seconds issues; at
// least minUnits so the tail percentile always rests on enough samples.
func (w *workload) units(seconds int) int {
	u := int(math.Round(float64(seconds) * w.rate / float64(w.unitOps)))
	return max(u, minUnits)
}

// minUnits keeps every stream long enough that the tail percentile has
// at least minBeyond samples beyond it and lies above the median.
const minUnits = 2 * minBeyond

// warmUnits is the number of untimed warm-up units each daemon of the
// timed phase serves before its share of the timed requests.
func warmUnits(units int) int { return max(3, units/40) }

// warmAndTimed draws the warm-up requests and then the timed ones from
// one generator, so the two never repeat each other.
func warmAndTimed(gen func(count int) ([]request, error), warm, units int) ([]request, []request, error) {
	w, err := gen(warm)
	if err != nil {
		return nil, nil, err
	}
	reqs, err := gen(units)
	return w, reqs, err
}

// hashStream returns the SHA-256 of every request the run sends, in
// order: method, path, and body of each upload, warm-up request, and
// timed request. Equal seeds give equal hashes.
func hashStream(s *stream) [32]byte {
	h := sha256.New()
	var n [8]byte
	put := func(parts ...[]byte) {
		for _, p := range parts {
			binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write(p)
		}
	}
	for _, u := range s.uploads {
		put([]byte("POST"), []byte(u.path), u.body)
	}
	for _, rs := range [][]request{s.warm, s.reqs} {
		for _, r := range rs {
			put([]byte(r.method), []byte(r.path), r.body)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// newStream generates the stream of workload w for seed: the same seed
// and seconds always give byte-identical requests.
func newStream(w *workload, seed uint64, seconds int) (*generator, int, error) {
	units := w.units(seconds)
	g, err := w.gen(seed, units, warmUnits(units))
	return g, units, err
}

// --- wire encoding ------------------------------------------------------------

// wireObjects encodes a database's objects for the wire. Every
// generated value model is discrete.
func wireObjects(db *model.DB) []wire.Object {
	out := make([]wire.Object, db.N())
	for i, o := range db.Objects {
		d := o.Value.(*dist.Discrete)
		out[i] = wire.Object{Name: o.Name, Current: o.Current, Cost: o.Cost, Values: d.Values, Probs: d.Probs}
	}
	return out
}

// wireClaim encodes a claim for the wire.
func wireClaim(c *claims.Claim) wire.Claim {
	coef := make(map[string]float64, len(c.Coef))
	for id, v := range c.Coef {
		coef[strconv.Itoa(id)] = v
	}
	return wire.Claim{Name: c.Name, Const: c.Const, Coef: coef}
}

// wirePerturbations encodes perturbations for the wire.
func wirePerturbations(ps []claims.Perturbed) []wire.Perturbation {
	out := make([]wire.Perturbation, len(ps))
	for i, p := range ps {
		out[i] = wire.Perturbation{Claim: wireClaim(p.Claim), Sensibility: p.Sensibility}
	}
	return out
}

// direction names a claim direction on the wire.
func direction(d claims.Direction) string {
	if d == claims.LowerIsStronger {
		return "lower"
	}
	return "higher"
}

// marshal encodes v as a request body.
func marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return b, nil
}

// windowClaim builds the shared claim shape of the select and session
// workloads: the sum of a w-wide window of an n-object series at a
// seeded aligned start, with the other aligned windows as its
// perturbations (exponentially decaying sensibility with distance).
func windowClaim(r *rng.RNG, n, w int, lambda float64) (*claims.Claim, []claims.Perturbed) {
	start := w * r.Intn(n/w)
	orig := claims.WindowSum("claim", start, w)
	var ps []claims.Perturbed
	for _, p := range claims.NonOverlappingWindows("w", n, w, start, lambda) {
		if p.Distance > 0 {
			ps = append(ps, p)
		}
	}
	return orig, ps
}

// unitCosts sets every object's cleaning cost to one, so a budget
// counts cleanings.
func unitCosts(db *model.DB) *model.DB {
	for i := range db.Objects {
		db.Objects[i].Cost = 1
	}
	return db
}

// surpriseTau is the MaxPr threshold the workloads ask for: a quarter
// of the bias's standard deviation, the convention of the paper's
// counter-finding experiments.
func surpriseTau(db *model.DB, set *claims.Set) (float64, error) {
	m, err := ev.NewModular(db, set.Bias())
	if err != nil {
		return 0, err
	}
	return 0.25 * math.Sqrt(m.Variance()), nil
}

// --- select_minvar --------------------------------------------------------------

// MinVar/uniqueness solve shape: a series of unit-cost objects with
// 4-point supports, a window-6 sum claim asserted "as low as" the mean
// window sum, every other disjoint window as a perturbation, and a
// budget of eight cleanings. Each duplicity term enumerates 4^6 joint
// outcomes.
const (
	minvarN      = 120
	minvarK      = 4
	minvarW      = 6
	minvarBudget = 8
)

func genSelectMinVar(seed uint64, units, warm int) (*generator, error) {
	r := rng.New(seed)
	gen := func(count int) ([]request, error) {
		out := make([]request, count)
		for i := range out {
			db := unitCosts(datasets.SyntheticK(datasets.UR, minvarN, minvarK, r.Uint64()))
			orig, ps := windowClaim(r, minvarN, minvarW, 0.5)
			gamma := meanWindowSum(db.Currents(), minvarW)
			body, err := marshal(wire.Task{
				Problem: wire.Problem{
					Objects:       wireObjects(db),
					Claim:         wireClaim(orig),
					Direction:     "lower",
					Reference:     &gamma,
					Perturbations: wirePerturbations(ps),
				},
				Measure: "uniqueness",
				Goal:    "minvar",
				Budget:  minvarBudget,
			})
			if err != nil {
				return nil, err
			}
			out[i] = request{kind: kindSelect, method: "POST", path: "/v1/select", body: body, ops: 1}
		}
		return out, nil
	}
	return &generator{build: func([]string) ([]request, []request, error) {
		return warmAndTimed(gen, warm, units)
	}}, nil
}

// meanWindowSum is the mean sum of the disjoint w-wide windows of u: an
// asserted Γ that is plausible for some windows and doubtful for others.
func meanWindowSum(u []float64, w int) float64 {
	var tot float64
	cnt := 0
	for s := 0; s+w <= len(u); s += w {
		for i := s; i < s+w; i++ {
			tot += u[i]
		}
		cnt++
	}
	return tot / float64(cnt)
}

// --- select_maxpr ---------------------------------------------------------------

// MaxPr/fairness solve shape: a 6-point-support series of unit-cost
// objects, a window-4 sum claim checked against its current value, the
// other disjoint windows as perturbations, and a budget of four
// cleanings. Unit costs pin the chosen set's size, and with it the
// convolution width every candidate evaluation pays.
const (
	maxprN      = 100
	maxprW      = 4
	maxprBudget = 4
)

func genSelectMaxPr(seed uint64, units, warm int) (*generator, error) {
	r := rng.New(seed)
	gen := func(count int) ([]request, error) {
		out := make([]request, count)
		for i := range out {
			db := unitCosts(datasets.SyntheticK(datasets.UR, maxprN, datasets.MaxSupport, r.Uint64()))
			orig, ps := windowClaim(r, maxprN, maxprW, 0.35)
			set, err := claims.NewSet(orig, claims.HigherIsStronger, orig.Eval(db.Currents()), ps)
			if err != nil {
				return nil, err
			}
			tau, err := surpriseTau(db, set)
			if err != nil {
				return nil, err
			}
			body, err := marshal(wire.Task{
				Problem: wire.Problem{
					Objects:       wireObjects(db),
					Claim:         wireClaim(orig),
					Perturbations: wirePerturbations(ps),
				},
				Measure: "fairness",
				Goal:    "maxpr",
				Budget:  maxprBudget,
				Tau:     tau,
			})
			if err != nil {
				return nil, err
			}
			out[i] = request{kind: kindSelect, method: "POST", path: "/v1/select", body: body, ops: 1}
		}
		return out, nil
	}
	return &generator{build: func([]string) ([]request, []request, error) {
		return warmAndTimed(gen, warm, units)
	}}, nil
}

// --- triage_stream --------------------------------------------------------------

// Triage shape: the claim stream of the repository's own triage
// throughput benchmark (BenchmarkTriageThroughput in internal/server),
// cut into batches of consecutive arrivals. expt.ClaimStream cycles a
// 40-object series' arrivals over five window-6 claim families that
// share one asserted Γ, naming each arrival afresh, so a batch of 100
// consecutive arrivals holds each family 20 times: five distinct claims
// and 95 renamed reposts, the batch size the repository gates its
// amortization floor at.
const (
	triageN        = 40
	triageW        = 6
	triageFamilies = 5
	triageClaims   = 100
)

func genTriage(seed uint64, units, warm int) (*generator, error) {
	db, arrivals := expt.ClaimStream(datasets.UR, triageN, triageW, (warm+units)*triageClaims, triageFamilies, seed)
	objs := wireObjects(db)
	up, err := marshal(wire.Dataset{Name: "triage", Objects: objs})
	if err != nil {
		return nil, err
	}
	g := &generator{uploads: []uploadReq{{path: "/v1/datasets", body: up, objects: objs}}}
	g.build = func(ids []string) ([]request, []request, error) {
		next := 0
		gen := func(count int) ([]request, error) {
			out := make([]request, count)
			for i := range out {
				batch := make([]wire.TriageClaim, triageClaims)
				distinct := map[*claims.Set]bool{}
				for k, a := range arrivals[next : next+triageClaims] {
					c := wireClaim(a.Set.Original)
					c.Name = a.Name
					ref := a.Set.Ref
					batch[k] = wire.TriageClaim{
						Claim:         c,
						Direction:     direction(a.Set.Dir),
						Reference:     &ref,
						Perturbations: wirePerturbations(a.Set.Perturbs),
					}
					distinct[a.Set] = true
				}
				next += triageClaims
				body, err := marshal(wire.TriageRequest{DatasetID: ids[0], Measure: "uniqueness", Claims: batch})
				if err != nil {
					return nil, err
				}
				out[i] = request{kind: kindTriage, method: "POST", path: "/v1/triage", body: body,
					ops: len(batch), claims: len(batch), unique: len(distinct)}
			}
			return out, nil
		}
		return warmAndTimed(gen, warm, units)
	}
	return g, nil
}

// --- session_episodes -----------------------------------------------------------

// Session shape: one uploaded series; each episode asks about a window-4
// sum at a seeded start with a budget of about five cleanings,
// alternating MinVar and MaxPr goals, and follows every recommendation
// with the object's hidden true value until the session is terminal.
const (
	sessionN      = 200
	sessionW      = 4
	sessionBudget = 28
)

func genSessions(seed uint64, units, warm int) (*generator, error) {
	db := datasets.SyntheticK(datasets.UR, sessionN, datasets.MaxSupport, seed)
	objs := wireObjects(db)
	up, err := marshal(wire.Dataset{Name: "sessions", Objects: objs})
	if err != nil {
		return nil, err
	}
	g := &generator{uploads: []uploadReq{{path: "/v1/datasets", body: up, objects: objs}}}
	g.build = func(ids []string) ([]request, []request, error) {
		sdb, err := wire.BuildDB(objs)
		if err != nil {
			return nil, nil, err
		}
		r := rng.New(seed ^ 0x5e55)
		episode := 0
		gen := func(count int) ([]request, error) {
			var out []request
			for e := 0; e < count; e++ {
				reqs, err := genEpisode(r, db, sdb, ids[0], episode)
				if err != nil {
					return nil, err
				}
				episode++
				out = append(out, reqs...)
			}
			return out, nil
		}
		return warmAndTimed(gen, warm, units)
	}
	return g, nil
}

// genEpisode builds one episode's requests and the state each must
// leave: create, one clean per recommendation (revealing the object's
// hidden true value, drawn from its law), then delete. The states come
// from playing the episode on an in-process session.Stepper over the
// same decoded request the daemon receives.
func genEpisode(r *rng.RNG, db, sdb *model.DB, datasetID string, episode int) ([]request, error) {
	goal := "minvar"
	if episode%2 == 1 {
		goal = "maxpr"
	}
	orig, ps := windowClaim(r, sessionN, sessionW, 0.35)
	tau := 0.0
	if goal == "maxpr" {
		set, err := claims.NewSet(orig, claims.HigherIsStronger, orig.Eval(db.Currents()), ps)
		if err != nil {
			return nil, err
		}
		if tau, err = surpriseTau(db, set); err != nil {
			return nil, err
		}
	}
	body, err := marshal(wire.SessionRequest{
		Problem: wire.Problem{
			DatasetID:     datasetID,
			Claim:         wireClaim(orig),
			Perturbations: wirePerturbations(ps),
		},
		Goal:   goal,
		Budget: sessionBudget,
		Tau:    tau,
	})
	if err != nil {
		return nil, err
	}
	play, err := newEpisodePlay(body, sdb)
	if err != nil {
		return nil, err
	}
	st, want, err := play.state()
	if err != nil {
		return nil, err
	}
	out := []request{{kind: kindCreate, method: "POST", path: "/v1/sessions", body: body, ops: 1, want: want, status: st.Status}}
	for st.Recommendation != nil {
		o := st.Recommendation.Object
		value := db.Objects[o].Value.(*dist.Discrete).Sample(r)
		clean, err := marshal(wire.CleanRequest{Step: st.Steps, Object: o, Value: value})
		if err != nil {
			return nil, err
		}
		if err := play.step(o, value); err != nil {
			return nil, err
		}
		if st, want, err = play.state(); err != nil {
			return nil, err
		}
		out = append(out, request{kind: kindClean, method: "POST", path: "/v1/sessions/" + sessionSlot + "/clean",
			body: clean, ops: 1, want: want, status: st.Status})
	}
	out = append(out, request{kind: kindDelete, method: "DELETE", path: "/v1/sessions/" + sessionSlot, ops: 1,
		want: sha256.Sum256([]byte("{\"deleted\":\"\"}\n")), status: "deleted"})
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
