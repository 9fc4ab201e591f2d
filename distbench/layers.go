package main

// layerAgg sums the spans of one name.
type layerAgg struct {
	calls, ns, selfNs, rounds, msgs, work int64
}

// layerExtras carries the per-layer inputs that do not come from spans.
type layerExtras struct {
	instBytes, instEstimate int64   // memory probe: measured and estimated
	m                       int64   // edges of the resident graph
	overhead                float64 // traced wall per request / untraced
}

// commPrimitives are the core.Comm calls of the solve path, by metric name.
var commPrimitives = []string{"matvec", "global_sums", "tree_totals", "tree_updown"}

// lowerLayers are the replayed calls a request span is compared with to
// give the service layer's own time.
var lowerLayers = map[string]bool{
	"core.iterate": true, "apps.mst": true, "graph.build": true, "core.prepare": true,
}

// perLayer turns the traced run's spans into the per-layer metrics.
// Request-path layers are per traced request (ops of them); prepare-path
// layers are per replayed prepare. A layer a workload never calls reads 0.
func perLayer(spans []span, ops int, s scrapeResult, x layerExtras) map[string]metric {
	agg := map[string]*layerAgg{}
	var requestNs, lowerNs int64
	for i := range spans {
		sp := &spans[i]
		a := agg[sp.Name]
		if a == nil {
			a = &layerAgg{}
			agg[sp.Name] = a
		}
		d := sp.End - sp.Start
		a.calls++
		a.ns += d
		a.selfNs += d - sp.children
		a.rounds += sp.Rounds
		a.msgs += sp.Msgs
		a.work += sp.Work
		if sp.Req >= 0 && sp.Name == "service.request" {
			requestNs += d
		} else if sp.Req >= 0 && lowerLayers[sp.Name] {
			lowerNs += d
		}
	}
	get := func(name string) *layerAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const ms = 1e6
	perOp := func(v int64) float64 { return div(float64(v), float64(ops)) }
	prepares := float64(get("core.prepare").calls)
	perPrep := func(v int64) float64 { return div(float64(v), prepares) }

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("service.request_ms", perOp(requestNs)/ms, "ms")
	put("service.self_ms", perOp(requestNs-lowerNs)/ms, "ms")
	put("service.decode_ms", perOp(get("service.decode").ns)/ms, "ms")
	put("service.encode_ms", perOp(get("service.encode").ns)/ms, "ms")
	loads := s[`distlapd_http_requests_total{endpoint="load"}`]
	put("service.cache_evictions_per_load", div(s["distlapd_cache_evictions_total"], loads), "count")
	hits := s["distlapd_cache_hits_total"]
	put("service.cache_hit_ratio", div(hits, hits+s["distlapd_cache_misses_total"]), "ratio")

	put("graph.build_ms", perPrep(get("graph.build").ns)/ms, "ms")
	put("graph.csr_ms", perPrep(get("graph.csr").ns)/ms, "ms")
	put("core.prepare_ms", perPrep(get("core.prepare").ns)/ms, "ms")
	put("core.comm_setup_ms", perPrep(get("core.comm_setup").ns)/ms, "ms")
	put("core.comm_setup_rounds", perPrep(get("core.comm_setup").rounds), "rounds")
	put("core.precond_setup_ms", perPrep(get("core.precond_setup").ns)/ms, "ms")
	put("comm.cluster_trees_ms", perPrep(get("comm.cluster_trees").ns)/ms, "ms")
	put("core.instance_bytes", float64(x.instBytes), "bytes")
	put("core.size_estimate_ratio", div(float64(x.instEstimate), float64(x.instBytes)), "ratio")

	it, apply := get("core.iterate"), get("precond.apply")
	put("core.iterate_ms", perOp(it.ns)/ms, "ms")
	put("core.iterate_self_ms", perOp(it.selfNs)/ms, "ms")
	put("core.iterations", perOp(it.work), "iterations")
	put("precond.apply_ms", perOp(apply.ns)/ms, "ms")
	put("precond.apply_calls", perOp(apply.calls), "count")
	put("precond.apply_self_ms", perOp(apply.selfNs)/ms, "ms")

	for _, p := range commPrimitives {
		a := get("comm." + p)
		put("comm."+p+".ms", perOp(a.ns)/ms, "ms")
		put("comm."+p+".calls", perOp(a.calls), "count")
		put("comm."+p+".rounds", perOp(a.rounds), "rounds")
		put("comm."+p+".messages", perOp(a.msgs), "words")
		put("comm."+p+".ns_per_round", div(float64(a.ns), float64(a.rounds)), "ns/round")
		put("comm."+p+".edge_util", div(float64(a.msgs), float64(a.rounds)*2*float64(x.m)), "ratio")
	}

	mst, pw := get("apps.mst"), get("partwise.solve")
	put("apps.mst_ms", perOp(mst.ns)/ms, "ms")
	put("apps.mst_self_ms", perOp(mst.selfNs)/ms, "ms")
	put("apps.mst_phases", perOp(mst.work), "count")
	put("partwise.solve_ms", perOp(pw.ns)/ms, "ms")
	put("partwise.solve_calls", perOp(pw.calls), "count")
	put("partwise.rounds", perOp(pw.rounds), "rounds")
	put("partwise.messages", perOp(pw.msgs), "words")

	put("trace.overhead_frac", x.overhead-1, "ratio")
	return out
}
