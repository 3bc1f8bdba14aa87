package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// daemonSums totals the daemon's per-request records (its JSON access
// log lines: latency plus the request's obs.Recorder stages and
// counters) over the traced phase.
type daemonSums struct {
	requests int
	durMS    float64 // server-side request time
	selfMS   float64 // request time outside the compile, solve and step stages
	stages   map[string]float64
	counters map[string]float64
}

// accessLine is one access-log record of cleanseld's JSON log.
type accessLine struct {
	Msg       string             `json:"msg"`
	RequestID string             `json:"request_id"`
	DurMS     float64            `json:"dur_ms"`
	Stages    map[string]float64 `json:"stages"`
	Ops       map[string]float64 `json:"ops"`
}

// topStages are the serving layer's own spans around the engine call;
// the engine stages nest inside them.
var topStages = []string{"compile", "solve", "step"}

// readDaemonLog totals the access-log records of the requests whose
// X-Request-ID starts with prefix.
func readDaemonLog(path, prefix string) (*daemonSums, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds := &daemonSums{stages: map[string]float64{}, counters: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var l accessLine
		if json.Unmarshal(sc.Bytes(), &l) != nil || l.Msg != "request" || !strings.HasPrefix(l.RequestID, prefix) {
			continue
		}
		ds.requests++
		ds.durMS += l.DurMS
		self := l.DurMS
		for _, s := range topStages {
			self -= l.Stages[s]
		}
		ds.selfMS += self
		for k, v := range l.Stages {
			ds.stages[k] += v
		}
		for k, v := range l.Ops {
			ds.counters[k] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// metrics assembles the per-layer metrics of a traced run. Every
// count and time is a total over the traced phase divided by its ops;
// shares are ratios of totals. A layer the workload does not reach
// reports 0.
func (l *layerStats) metrics(lr *loopResult, ds *daemonSums, cpu time.Duration, okOps int) (map[string]metric, error) {
	if lr.failed == 0 && ds.requests != len(lr.samples) {
		return nil, fmt.Errorf("daemon log holds %d traced requests, the client completed %d", ds.requests, len(lr.samples))
	}
	ops := float64(max(okOps, 1))
	per := func(v float64) float64 { return v / ops }
	c := ds.counters
	spanMS := map[string]float64{} // layer.name → total ms
	var allocBytes, allocs float64
	for _, s := range l.spans.spans {
		spanMS[s.Layer+"."+s.Name] += float64(s.End-s.Start) / 1e6
		if s.Layer == "cleansel" && s.Name == "facade" {
			allocBytes += float64(s.AllocBytes)
			allocs += float64(s.Allocs)
		}
	}
	var reqBytes, respBytes, hits, cached float64
	for _, s := range lr.samples {
		reqBytes += float64(s.reqBytes)
		respBytes += float64(s.respBytes)
		if s.cache != "" {
			cached++
			if s.cache == "hit" {
				hits++
			}
		}
	}
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	ratio := func(v float64) metric { return metric{v, "ratio"} }
	return map[string]metric{
		"dist.conv_ops":            count(per(c["conv_ops"])),
		"dist.merge_share":         ratio(share(c["conv_atoms_merged"], c["conv_ops"])),
		"maxpr.prob_calls":         count(per(float64(l.probCalls))),
		"maxpr.prob_ms":            ms(per(float64(l.probSpent) / 1e6)),
		"maxpr.memo_hit_share":     ratio(share(float64(l.probCalls-l.probMisses), float64(l.probCalls))),
		"maxpr.exact_share":        ratio(share(c["maxpr_exact"], c["maxpr_exact"]+c["maxpr_mc_fallback"])),
		"ev.calls":                 count(per(c["ev_calls"])),
		"ev.state_init_ms":         ms(per(ds.stages["ev_state_init"])),
		"ev.singleton_ms":          ms(per(ds.stages["singleton_benefits"])),
		"ev.cache_hit_share":       ratio(share(c["ev_cache_hits"], c["ev_cache_hits"]+c["ev_cache_misses"])),
		"ev.shared_hit_share":      ratio(share(c["ev_shared_hits"], c["ev_shared_hits"]+c["ev_shared_misses"])),
		"parallel.fanouts":         count(per(c["parallel_fanouts"])),
		"parallel.items":           count(per(c["parallel_items"])),
		"parallel.cpu_per_wall":    ratio(share(cpu.Seconds(), lr.wall.Seconds())),
		"core.select_ms":           ms(per(spanMS["core.SelectWithContext"])),
		"core.rounds":              count(per(float64(l.rounds))),
		"core.triage_ms":           ms(per(spanMS["core.AssessBatch"])),
		"core.dedup_share":         ratio(per(c["triage_dedup_hits"])),
		"cleansel.op_ms":           ms(per(spanMS["cleansel.facade"])),
		"cleansel.self_ms":         ms(per(facadeSelfMS(l.spans.spans))),
		"cleansel.alloc_kb":        metric{per(allocBytes / 1024), "KiB"},
		"cleansel.allocs":          count(per(allocs)),
		"session.create_ms":        ms(per(spanMS["session.create"])),
		"session.step_ms":          ms(per(spanMS["session.step"])),
		"session.step_evals":       count(per(c["session_step_evals"])),
		"server.request_ms":        ms(per(ds.durMS)),
		"server.self_ms":           ms(per(ds.selfMS)),
		"server.compile_ms":        ms(per(ds.stages["compile"])),
		"server.req_kb":            metric{per(reqBytes / 1024), "KiB"},
		"server.resp_kb":           metric{per(respBytes / 1024), "KiB"},
		"server.cache_hit_share":   ratio(share(hits, cached)),
		"obs.trace_overhead_share": ratio(traceOverhead(lr.samples)),
	}, nil
}

// facadeSelfMS totals the root package's own time: every op's facade
// span minus the layer calls (ev, maxpr, core) with which the op's
// replay rebuilds the same answer, the direct children of its replay
// span. What remains is the facade's own code (validation, the
// discretized view, building the result) plus any layer work the
// facade does beyond what the replay needs. The facade and the replay
// are timed one after the other, so a facade that adds almost nothing
// can read slightly below zero.
func facadeSelfMS(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		switch {
		case s.Layer == "cleansel" && s.Name == "facade":
			ns += s.End - s.Start
		case s.Parent >= 0 && spans[s.Parent].Layer == "cleansel" && spans[s.Parent].Name == "replay":
			ns -= s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// traceOverhead is the share by which ?trace=1 slows a request: per
// request kind, the traced median latency against the untraced one,
// weighted by the kind's sample count. Comparing within a kind keeps
// the request mix out of it: a session DELETE, which the daemon cannot
// trace, never counts as an untraced baseline for the heavier kinds.
func traceOverhead(samples []sample) float64 {
	var traced, plain [kindDelete + 1][]float64
	for _, s := range samples {
		if s.traced {
			traced[s.kind] = append(traced[s.kind], s.ms)
		} else {
			plain[s.kind] = append(plain[s.kind], s.ms)
		}
	}
	var extra, base float64
	for k := range traced {
		if len(traced[k]) == 0 || len(plain[k]) == 0 {
			continue
		}
		t, _ := latencySummary(traced[k])
		p, _ := latencySummary(plain[k])
		n := float64(len(traced[k]) + len(plain[k]))
		extra += n * (t - p)
		base += n * p
	}
	return share(extra, base)
}
