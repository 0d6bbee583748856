package main

import "math"

// layerMetric pairs a span name with the per-layer figure derived from it.
type layerMetric struct{ span, metric string }

// nsPerUnit are the layers timed as self time per unit of work: per trace
// event, or per manager call for the alloc and core.custom layers.
var nsPerUnit = []layerMetric{
	{"workloads.gen", "workloads.gen_ns_per_event"},
	{"trace.encode", "trace.encode_ns_per_event"},
	{"trace.decode", "trace.decode_ns_per_event"},
	{"trace.replay_dense", "trace.replay_dense_ns_per_event"},
	{"trace.replay_sparse", "trace.replay_sparse_ns_per_event"},
	{"profile", "profile.ns_per_event"},
	{"alloc.kingsley", "alloc.kingsley.ns_per_op"},
	{"alloc.lea", "alloc.lea.ns_per_op"},
	{"alloc.regions", "alloc.regions.ns_per_op"},
	{"alloc.obstack", "alloc.obstack.ns_per_op"},
	{"core.custom", "core.custom.ns_per_op"},
	{"replay.build", "replay.build_ns_per_event"},
	{"replay.sharded", "replay.sharded_ns_per_event"},
}

// layerMetrics derives the per-layer figures from a traced run. A layer
// the workload never calls reads 0. plain and traced are the untraced and
// traced sessions of the same run.
func layerMetrics(tr *tracer, plain, traced timed) map[string]metric {
	spans := tr.byName()
	self := func(name string) float64 {
		if a := spans[name]; a != nil {
			return float64(a.self)
		}
		return 0
	}
	durMs := func(name string) []float64 {
		var v []float64
		if a := spans[name]; a != nil {
			for _, d := range a.durs {
				v = append(v, float64(d)/1e6)
			}
		}
		return v
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	units := func(name string) float64 { return float64(tr.units[name]) }

	out := map[string]metric{}
	for _, l := range nsPerUnit {
		out[l.metric] = metric{per(self(l.span), units(l.span)), "ns"}
	}
	evals := durMs("core.eval")
	explorations := units("search.explorations")
	out["core.design_ms"] = metric{per(self("core.design"), units("core.design")) / 1e6, "ms"}
	out["core.candidate_eval_ms_p50"] = metric{median(evals), "ms"}
	out["core.candidate_eval_ms_p90"] = metric{tail(evals, 0.9), "ms"}
	out["search.strategy_ms"] = metric{per(self("search.next")+self("search.observe"), explorations) / 1e6, "ms"}
	out["search.generations"] = metric{per(units("search.generations"), explorations), "count"}
	out["search.unique_ratio"] = metric{per(units("search.unique"), units("search.evaluations")), "ratio"}
	out["pool.idle_share"] = metric{per(units("pool.idle_ns"), units("pool.worker_ns")), "ratio"}
	out["server.upload_ms_p50"] = metric{median(durMs("server.upload")), "ms"}
	out["server.queue_ms_p50"] = metric{median(tr.samples["server.queue_ms"]), "ms"}
	out["server.profile_job_ms_p50"] = metric{median(durMs("server.profile_job")), "ms"}
	out["server.explore_job_ms_p50"] = metric{median(durMs("server.explore_job")), "ms"}
	out["server.overhead_ms_p50"] = metric{median(tr.samples["server.overhead_ms"]), "ms"}
	out["server.retained_kb_per_job"] = metric{0, "KB"}
	out["bench.layer_sum_gap"] = metric{math.Abs(float64(tr.laneZeroSelf())/1e9/plain.wall() - 1), "ratio"}
	out["bench.trace_overhead_share"] = metric{traced.wall()/plain.wall() - 1, "ratio"}
	return out
}
