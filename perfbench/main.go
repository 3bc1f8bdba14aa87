// Command perfbench is cleansel's end-to-end benchmark. It launches
// cmd/cleanseld as a child process, drives it in a closed loop over one
// keep-alive loopback connection with a request stream generated from
// a seed, checks every answer against the root package's in-process
// answer, and prints the end-to-end metrics of one workload. With
// -trace 1 it instead replays the same stream layer by layer and prints
// per-layer metrics. See README.md in this directory.
//
// Run it through run.sh, which builds the daemon and the harness from
// the checkout first:
//
//	bash perfbench/run.sh --workload select_maxpr --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// run's diagnostics. The exit status is 0 only for a correct run.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string // path of the cleanseld binary
	workdir  string // scratch directory for logs and spans
	commit   string
}

// setups is the number of daemon launches per run; setup_s is their
// median. A launch takes a few milliseconds and varies by half of that
// from one launch to the next, so the median needs many of them.
const setups = 21

// segments is the number of daemons a timed run is spread over. How
// fast one cleanseld process runs on a shared VM varies by up to a fifth
// from one launch to the next and stays so for the life of the process:
// eight session runs against one daemon each spread 0.12 in ops_per_s,
// against 0.014 for eight with four daemons each, taken alternately.
const segments = 4

// runBudget bounds a whole run, set-up and checks included.
const runBudget = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 2 && args[0] == spinFlag {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "perfbench: %s wants a positive thread count, not %q\n", spinFlag, args[1])
			return 2
		}
		return spinMain(n, stdout, stderr)
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	fl.Uint64Var(&cfg.seed, "seed", 1, "seed the request stream is generated from")
	fl.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; sizes the fixed request count")
	fl.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	fl.StringVar(&cfg.daemon, "daemon", "", "cleanseld binary to launch")
	fl.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for daemon logs and span files")
	fl.StringVar(&cfg.commit, "commit", "", "commit under test, recorded in the diagnostics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(sortedKeys(workloads), ", "))
		return 2
	case cfg.daemon == "":
		fmt.Fprintln(stderr, "perfbench: -daemon is required")
		return 2
	case cfg.seconds < 1 || (trace != 0 && trace != 1):
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	sp, err := startSpinner(stderr)
	if err != nil {
		// The answers and metrics stay correct without it; the run is
		// only less steady, and the diagnostics say so.
		fmt.Fprintln(stderr, "perfbench: running without the spinner:", err)
	}
	rep, err := bench(cfg, w)
	if sp != nil {
		sp.stop()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.diag["spinner"] = sp != nil
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	diag              map[string]any
}

func (r *report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// print writes the diagnostics line and then the result line.
func (r *report) print(w io.Writer) error {
	d, err := json.Marshal(map[string]any{"diagnostics": r.diag})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, res)
	return err
}

// bench runs one workload: generate, set up, warm up, time or trace,
// and check.
func bench(cfg config, w *workload) (*report, error) {
	deadline := time.Now().Add(runBudget)
	ctx := context.Background()
	gen, units, err := newStream(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	client := newClient()

	// Set-up: launch the daemon and upload the workload's datasets,
	// several times. The launches are split around the timed phase, so
	// a burst of machine noise at one moment moves few of them; the last
	// launch before the timed phase serves the first segment.
	logPath := filepath.Join(cfg.workdir, "cleanseld-"+w.name+".log")
	setupLog := filepath.Join(cfg.workdir, "cleanseld-setup.log")
	before := (setups + 1) / 2
	var (
		d         *daemon
		ids       []string
		setupSecs []float64
	)
	for k := 0; k < before; k++ {
		if d != nil {
			d.stop()
		}
		path := setupLog
		if k == before-1 {
			path = logPath
		}
		var secs float64
		if d, ids, secs, err = setUp(cfg.daemon, path, client, gen.uploads, ids); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
	}
	defer func() { d.stop() }() // whichever daemon is current

	warm, reqs, err := gen.build(ids)
	if err != nil {
		return nil, err
	}
	s := &stream{uploads: gen.uploads, warm: warm, reqs: reqs}
	for _, r := range reqs {
		s.ops += r.ops
	}
	idx, err := newDatasetIndex(gen.uploads, ids)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var lay *layerStats
	if cfg.trace {
		if lay, err = replay(ctx, idx, reqs); err != nil {
			return nil, err
		}
		if len(lay.mismatches) > 0 {
			rep.errs = append(rep.errs, lay.mismatches...)
		}
	} else if err := idx.expectAll(ctx, reqs); err != nil {
		return nil, err
	}
	if err := idx.expectAll(ctx, warm); err != nil {
		return nil, err
	}

	// The timed (or traced) phase, in segments of consecutive requests,
	// each served by a daemon of its own after its own untimed (but
	// checked) warm-up. A traced run uses one daemon, so that the access
	// log it reads covers the whole phase.
	nseg := segments
	var traced []bool
	if cfg.trace {
		nseg = 1
		traced = traceMask(cfg.seed, len(reqs))
	}
	bounds := segmentBounds(reqs, nseg)
	wr, lr := &loopResult{}, &loopResult{}
	var (
		cpu   time.Duration
		rsses []float64
		ticks cpuTimes // machine-wide, summed over the segments
	)
	for k := 0; k < nseg; k++ {
		if k > 0 {
			d.stop()
			next, _, secs, err := setUp(cfg.daemon, logPath, client, gen.uploads, ids)
			if err != nil {
				return nil, err
			}
			d = next
			setupSecs = append(setupSecs, secs)
		}
		var segTraced []bool
		if traced != nil {
			segTraced = traced[bounds[k]:bounds[k+1]]
		}
		seg, err := timeSegment(client, d, warm, reqs[bounds[k]:bounds[k+1]], segTraced, deadline)
		if err != nil {
			return nil, err
		}
		wr.add(seg.warm)
		lr.add(seg.timed)
		cpu += seg.cpu
		rsses = append(rsses, float64(seg.rss))
		ticks.total += seg.ticks.total
		ticks.steal += seg.ticks.steal
	}
	d.stop()
	rep.attempted = wr.attempted + lr.attempted
	rep.failed = wr.failed + lr.failed
	rep.errs = append(rep.errs, wr.errs...)
	rep.errs = append(rep.errs, lr.errs...)
	for len(setupSecs) < setups {
		extra, _, secs, err := setUp(cfg.daemon, setupLog, client, gen.uploads, ids)
		if err != nil {
			return nil, err
		}
		extra.stop()
		setupSecs = append(setupSecs, secs)
	}

	okOps := 0
	lat := make([]float64, len(lr.samples))
	for i, sm := range lr.samples {
		okOps += sm.ops
		lat[i] = sm.ms
	}
	p50, tail := latencySummary(lat)
	wall := lr.wall.Seconds()
	streamSum := hashStream(s)
	rep.diag = map[string]any{
		"workload":        w.name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"units":           units,
		"requests":        len(reqs),
		"ops":             s.ops,
		"warmup_requests": len(warm),
		"tail":            tail,
		"percentiles_ms":  diagnosticPercentiles(lat),
		"wall_s":          wall,
		"ops_per_s_whole": share(float64(okOps), wall),
		"rate_slices":     rateSlices(cfg.seconds),
		"daemon_cpu_s":    cpu.Seconds(),
		"steal_share":     stealShare(cpuTimes{}, ticks),
		"segments":        nseg,
		"setup_samples_s": setupSecs,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          cfg.commit,
		"stream_sha256":   hex.EncodeToString(streamSum[:]),
	}
	if cfg.trace {
		ds, err := readDaemonLog(logPath, "pb-")
		if err != nil {
			return nil, err
		}
		if rep.metrics, err = lay.metrics(lr, ds, cpu, okOps); err != nil {
			return nil, err
		}
		spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		if err := lay.spans.write(spans); err != nil {
			return nil, err
		}
		rep.diag["spans"] = spans
		return rep, nil
	}
	rep.metrics = map[string]metric{
		"ops_per_s":     {sliceRate(lr.samples, rateSlices(cfg.seconds)), "1/s"},
		"p50_ms":        {p50, "ms"},
		"tail_ms":       {tail.Value, "ms"},
		"cpu_ms_per_op": {float64(cpu.Microseconds()) / 1e3 / float64(max(okOps, 1)), "ms"},
		"peak_rss_mb":   {median(rsses) / (1 << 20), "MiB"},
		"setup_s":       {median(setupSecs), "s"},
	}
	return rep, nil
}

// segmentResult is what one daemon's share of the timed phase gives.
type segmentResult struct {
	warm, timed *loopResult
	cpu         time.Duration // the daemon's CPU over the timed requests
	rss         int64         // the daemon's peak resident set, in bytes
	ticks       cpuTimes      // machine-wide CPU ticks over the timed requests
}

// timeSegment warms d up with warm and then sends it reqs, measuring
// the daemon's CPU and the machine's steal over reqs alone.
func timeSegment(client *http.Client, d *daemon, warm, reqs []request, traced []bool, deadline time.Time) (*segmentResult, error) {
	wr := loop(client, d.base, warm, nil, "pbw-", deadline)
	pid := d.pid()
	cpu0, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	st0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	lr := loop(client, d.base, reqs, traced, "pb-", deadline)
	cpu1, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	st1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	return &segmentResult{
		warm:  wr,
		timed: lr,
		cpu:   cpu1 - cpu0,
		rss:   rss,
		ticks: cpuTimes{total: st1.total - st0.total, steal: st1.steal - st0.steal},
	}, nil
}

// segmentBounds cuts reqs into n runs of consecutive requests of about
// equal length and returns the n+1 cut points. A cut never falls inside
// a session episode: it moves forward to the next request that opens
// one.
func segmentBounds(reqs []request, n int) []int {
	b := []int{0}
	for k := 1; k < n; k++ {
		i := max(len(reqs)*k/n, b[k-1])
		for i < len(reqs) && reqs[i].kind > kindCreate {
			i++
		}
		b = append(b, i)
	}
	return append(b, len(reqs))
}

// rateSlices is the number of slices ops_per_s is the median over: one
// per nominal second, and at least five.
func rateSlices(seconds int) int { return max(seconds, 5) }

// setUp launches a daemon and uploads the workload's datasets, timing
// both. It checks that the daemon assigns the ids an earlier launch did
// (want; nil for the first).
func setUp(bin, logPath string, client *http.Client, uploads []uploadReq, want []string) (*daemon, []string, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, logPath, client, 30*time.Second)
	if err != nil {
		return nil, nil, 0, err
	}
	ids := make([]string, len(uploads))
	for i, u := range uploads {
		body, err := upload(client, d.base, u)
		if err != nil {
			d.stop()
			return nil, nil, 0, err
		}
		var info struct{ ID string }
		if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
			d.stop()
			return nil, nil, 0, fmt.Errorf("upload answered %q without an id", body)
		}
		ids[i] = info.ID
	}
	secs := time.Since(t0).Seconds()
	if want != nil && strings.Join(ids, ",") != strings.Join(want, ",") {
		d.stop()
		return nil, nil, 0, fmt.Errorf("dataset ids changed between launches: %v vs %v", want, ids)
	}
	return d, ids, secs, nil
}

// traceMask picks, from the seed, the half of the traced run's requests
// that carry ?trace=1; the other half gives the untraced latency the
// tracing overhead is measured against.
func traceMask(seed uint64, n int) []bool {
	m := make([]bool, n)
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range m {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		m[i] = (z^(z>>31))&1 == 1
	}
	return m
}
