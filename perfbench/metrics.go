package main

import (
	"math"
	"sort"
	"time"

	"dpslog/internal/mechanism"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100), 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// servedSamples splits the served run into the series the metrics read.
type servedSamples struct {
	releases, requests, appends []float64 // latency, ms
	outputSize, diversity       []float64 // per release, pairs
}

func (st *runState) samples() servedSamples {
	var s servedSamples
	for _, o := range st.all() {
		if !o.ok() {
			continue
		}
		lat := ms(o.res.latency)
		s.requests = append(s.requests, lat)
		switch {
		case o.class == classAppend:
			s.appends = append(s.appends, lat)
		case o.class == classRelease:
			s.releases = append(s.releases, lat)
			switch p := o.res.resp.Plan; p.Kind {
			case "O-UMP":
				s.outputSize = append(s.outputSize, float64(p.OutputSize))
			case "D-UMP":
				s.diversity = append(s.diversity, p.Objective)
			}
		}
	}
	return s
}

// endToEnd is what a user of the service sees, measured untraced.
func endToEnd(st *runState) map[string]metric {
	s := st.samples()
	return map[string]metric{
		"setup_s":             {median(st.setups), "s"},
		"releases_per_s":      {float64(len(s.releases)) / st.elapsed.Seconds(), "1/s"},
		"release_p50_ms":      {percentile(s.releases, 50), "ms"},
		"release_p90_ms":      {percentile(s.releases, 90), "ms"},
		"request_p50_ms":      {percentile(s.requests, 50), "ms"},
		"request_p90_ms":      {percentile(s.requests, 90), "ms"},
		"server_peak_rss_mb":  {st.rssMB, "MB"},
		"utility_output_size": {mean(s.outputSize), "pairs"},
	}
}

// layers are the internal modules on the serving path, plus the load
// generator; each reports its call count and failures.
var layers = []string{"server", "corpus", "ingest", "searchlog", "partition", "ump", "lp", "bip",
	"dp", "sampling", "mechanism", "ledger", "loadgen"}

// layerMetrics are the per-layer numbers of the traced run, with the
// server's own counter deltas from the served run. A layer the workload
// does not exercise reports 0.
func layerMetrics(st *runState, rp *replayer) map[string]metric {
	s := st.samples()
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	var (
		oSolve, dSolve, cached           []float64
		components                       []float64
		lpSolves, iters, refactor, etaMx int
		lpTime                           time.Duration
		compSum, reusedSum               int
		bipCalls                         int
	)
	for _, sv := range rp.solves {
		if !sv.timed {
			continue
		}
		p := sv.plan
		components = append(components, float64(p.Components))
		compSum += p.Components
		reusedSum += p.Reused
		resolved := p.Reused < p.Components
		switch {
		case !resolved:
			cached = append(cached, ms(sv.dur))
		case sv.kind == mechanism.ObjectiveDiversity:
			dSolve = append(dSolve, ms(sv.dur))
			bipCalls++
		default:
			oSolve = append(oSolve, ms(sv.dur))
		}
		if sv.kind == mechanism.ObjectiveOutputSize {
			iters += p.Iterations
			if p.Iterations > 0 {
				lpTime += sv.dur
			}
		}
		lpSolves += p.Stats.LPSolves
		refactor += p.Stats.Refactorizations
		etaMx = max(etaMx, p.Stats.EtaLength)
	}

	// solve-cold → releases_per_s, release_p50_ms
	put("ump.solve_ms", median(oSolve), "ms")
	put("ump.lp_solves", float64(lpSolves), "count")
	put("lp.iterations", float64(iters), "count")
	put("lp.refactorizations", float64(refactor), "count")
	put("lp.eta_length_max", float64(etaMx), "count")
	put("lp.us_per_iteration", ratio(float64(lpTime.Microseconds()), float64(iters)), "us")

	// release-continual → release_p50_ms
	put("searchlog.preprocess_ms", median(rp.layerDurations("searchlog.preprocess")), "ms")
	put("partition.decompose_ms", median(rp.layerDurations("partition.decompose")), "ms")
	put("partition.components", median(components), "count")
	put("ump.cached_solve_ms", median(cached), "ms")
	put("ump.comp_reuse_ratio", ratio(float64(reusedSum), float64(compSum)), "ratio")
	put("ump.components_total", float64(compSum), "count")
	put("sampling.output_ms", median(rp.layerDurations("sampling.output")), "ms")
	put("dp.audit_ms", median(rp.layerDurations("dp.audit")), "ms")
	put("server.overhead_ms", percentile(s.releases, 50)-median(rp.requestDurations(classRelease)), "ms")

	// release-continual → release_p90_ms
	put("bip.diversity_solve_ms", median(dSolve), "ms")
	put("ledger.charge_ms", median(rp.ledgerPerRequest()), "ms")

	// release-continual → append_p50_ms
	put("append_p50_ms", percentile(s.appends, 50), "ms")
	put("utility_diversity", mean(s.diversity), "pairs")
	put("corpus.append_ms", median(rp.layerDurations("corpus.append")), "ms")
	put("corpus.write_amplification", ratio(float64(rp.appendW), float64(rp.appendIn)), "ratio")
	put("ingest.fold_ms", median(rp.allDurations("ingest.fold")), "ms")

	// Server counter deltas over the timed section.
	sc := st.scrape
	put("server.plan_cache_hits", sc.planHits, "count")
	put("server.plan_cache_misses", sc.planMisses, "count")
	put("server.comp_cache_hits", sc.compHits, "count")
	put("server.solver_iterations", sc.iterations, "count")
	put("server.queue_wait_ms_mean", 1000*ratio(sc.queueWaitSum, sc.queueWaitCount), "ms")

	// release-continual → release_p50_ms: the zealous release, and how
	// many charges spent new budget.
	put("mechanism.sanitize_ms", median(rp.layerDurations("mechanism.sanitize")), "ms")
	put("ledger.charged_ratio", ratio(float64(rp.charged), float64(rp.charges)), "ratio")

	// → setup_s: corpus uploads, which are set-up work.
	put("ingest.mb_per_s", ratio(float64(rp.ingestB)/1e6, rp.ingestT.Seconds()), "MB/s")
	put("corpus.put_ms", median(rp.allDurations("corpus.put")), "ms")

	put("trace.coverage_ratio", rp.coverage(), "ratio")

	// Call counts and failures per layer.
	calls, fails := map[string]int{}, map[string]int{}
	for _, sp := range rp.t.spans {
		if sp.Parent < 0 || !rp.timedReqs[sp.Req] {
			continue
		}
		calls[sp.layer()]++
		if sp.Failed {
			fails[sp.layer()]++
		}
	}
	calls["lp"] = lpSolves
	calls["bip"] = bipCalls
	for _, o := range st.all() {
		calls["server"]++
		calls["loadgen"]++
		if !o.ok() {
			fails["server"]++
		}
		if o.res.err != nil {
			fails["loadgen"]++
		}
	}
	for _, l := range layers {
		put(l+".calls", float64(calls[l]), "count")
		put(l+".failures", float64(fails[l]), "count")
	}
	return out
}

// allDurations lists the durations of every span named name, set-up
// included: corpus uploads are mostly set-up work.
func (r *replayer) allDurations(name string) []float64 {
	var out []float64
	for _, s := range r.t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// ledgerPerRequest is each timed corpus release's ledger time: check plus
// charge.
func (r *replayer) ledgerPerRequest() []float64 {
	per := map[int]time.Duration{}
	for _, s := range r.t.spans {
		if s.Parent < 0 && s.Name == "request."+classRelease && r.timedReqs[s.Req] {
			per[s.Req] = 0
		}
	}
	for _, s := range r.t.spans {
		if _, ok := per[s.Req]; ok && (s.Name == "ledger.check" || s.Name == "ledger.charge") {
			per[s.Req] += s.dur()
		}
	}
	out := make([]float64, 0, len(per))
	for _, d := range per {
		out = append(out, ms(d))
	}
	return out
}
