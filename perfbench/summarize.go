package main

import (
	"time"
)

// summarize computes every per-layer metric from a trace: stage times
// from the query accounting on the spans, self times from the span
// tree, and hit rates and counts from the first and last counter
// snapshots.
func summarize(t *Trace) map[string]float64 {
	spans := t.Spans
	self := SelfTimes(spans)
	v := make(map[string]float64, len(perLayerMetrics))

	// Query accounting: each query is carried by exactly one span.
	var st struct {
		probe1, read, probe2, colmap, infer, consolidate time.Duration
	}
	var queries, cands, probe2 float64
	for _, s := range spans {
		if s.Queries == 0 {
			continue
		}
		queries += float64(s.Queries)
		cands += float64(s.Cands)
		probe2 += float64(s.Probe2)
		st.probe1 += s.Stages.Probe1
		st.read += s.Stages.Read1 + s.Stages.Read2
		st.probe2 += s.Stages.Probe2
		st.colmap += s.Stages.ColumnMap
		st.infer += s.Stages.Infer
		st.consolidate += s.Stages.Consolidate
	}
	perQuery := func(d time.Duration) float64 {
		if queries == 0 {
			return 0
		}
		return ms(d) / queries
	}
	v["pipeline.probe2_ms"] = perQuery(st.probe2)
	v["pipeline.probe2_fired_pct"] = pct(probe2, queries)
	if queries > 0 {
		v["pipeline.candidates_per_query"] = cands / queries
	}
	v["core.build_ms"] = perQuery(st.colmap)
	v["consolidate.ms"] = perQuery(st.consolidate)
	v["inference.solve_ms"] = perQuery(st.infer)
	v["index.probe1_ms"] = perQuery(st.probe1)
	v["index.read_ms"] = perQuery(st.read)

	// Spans by name.
	var untimed, httpSelf, ingestSelf, liveIngest, postSwap, late, ingestRT []float64
	var batchWall []float64
	var batchBusy, batchCapacity time.Duration
	setup := map[string][]float64{}
	for i, s := range spans {
		switch s.Name {
		case spanAnswer:
			untimed = append(untimed, ms(s.Dur()-s.Stages.Total()))
		case spanHTTPAnswer:
			httpSelf = append(httpSelf, ms(self[i]))
		case spanHTTPIngest:
			ingestSelf = append(ingestSelf, ms(self[i]))
		case spanIngest:
			liveIngest = append(liveIngest, ms(s.Dur()))
		case spanBatch:
			if s.PostSwap {
				postSwap = append(postSwap, ms(s.Dur()))
			}
			if s.Queries > 1 {
				batchWall = append(batchWall, ms(s.Dur()))
				batchBusy += s.Stages.Total()
				batchCapacity += s.Dur() * time.Duration(s.Workers)
			}
		case spanRequest:
			late = append(late, ms(time.Duration(s.Late)))
		case spanRequestIngest:
			late = append(late, ms(time.Duration(s.Late)))
			ingestRT = append(ingestRT, ms(s.Dur()-time.Duration(s.Late+s.Wait)))
		case spanSetupGen, spanSetupExtract, spanSetupIndex, spanSetupOpen:
			setup[s.Name] = append(setup[s.Name], s.Dur().Seconds())
		}
	}
	v["pipeline.untimed_ms"] = mean(untimed)
	v["serve.self_ms"] = mean(httpSelf)
	v["serve.ingest_self_ms"] = mean(ingestSelf)
	v["live.ingest_ms"] = mean(liveIngest)
	v["batch.wall_ms"] = mean(batchWall)
	if batchCapacity > 0 {
		v["batch.parallel_eff"] = float64(batchBusy) / float64(batchCapacity)
	}
	if len(postSwap) > 0 {
		v["live.post_swap_p50_ms"] = median(postSwap)
	}
	if len(ingestRT) > 0 {
		v["serve.ingest_p50_ms"] = median(ingestRT)
	}
	if _, p99, ok := tail(sorted(late)); ok {
		v["loadgen.late_p99_ms"] = p99
	}
	for name, key := range map[string]string{
		spanSetupGen: "setup.gen_s", spanSetupExtract: "setup.extract_s",
		spanSetupIndex: "setup.index_s", spanSetupOpen: "setup.open_s",
	} {
		if len(setup[name]) > 0 {
			v[key] = median(setup[name])
		}
	}
	if _, p99, ok := tail(sorted(t.LatMs)); ok {
		v["loadgen.p99_ms"] = p99
	}
	if hi := sorted(t.HiLatMs); len(hi) > 0 {
		v["loadgen.hi_p50_ms"] = median(hi)
		_, v["loadgen.hi_p99_ms"], _ = tail(hi)
		v["loadgen.hi_slo_met_pct"] = pct(float64(len(hi)-t.HiMissed), float64(len(hi)))
	}
	if len(t.LatTracedMs) > 0 && len(t.LatUntracedMs) > 0 {
		u := median(t.LatUntracedMs)
		v["trace.overhead_pct"] = pct(median(t.LatTracedMs)-u, u)
	}

	// Counters over the timed region.
	if len(t.Snaps) >= 2 {
		a, b := t.Snaps[0], t.Snaps[len(t.Snaps)-1]
		ratio := func(hits, misses uint64, hits0, misses0 uint64) float64 {
			h, m := float64(hits-hits0), float64(misses-misses0)
			return pct(h, h+m)
		}
		v["core.pairsim_hit_pct"] = ratio(b.PairHits, b.PairMisses, a.PairHits, a.PairMisses)
		v["core.view_hit_pct"] = ratio(b.ViewHits, b.ViewMisses, a.ViewHits, a.ViewMisses)
		v["text.norm_hit_pct"] = ratio(b.NormHits, b.NormMisses, a.NormHits, a.NormMisses)
		v["index.block_skip_pct"] = pct(float64(b.BlocksSkipped-a.BlocksSkipped), float64(b.BlocksTotal-a.BlocksTotal))
		q := float64(b.Queries - a.Queries)
		if q > 0 {
			v["index.shards_pruned_per_query"] = float64(b.ShardsPruned-a.ShardsPruned) / q
			v["runtime.alloc_kb_per_query"] = float64(b.TotalAlloc-a.TotalAlloc) / 1024 / q
			v["runtime.gc_per_1k_queries"] = float64(b.NumGC-a.NumGC) * 1000 / q
		}
		v["plan.cost_error"] = b.CostError
		v["serve.shed_pct"] = pct(float64(b.Shed-a.Shed), float64(b.Requests-a.Requests))
		v["loadgen.fail_pct"] = pct(float64(b.Failed-a.Failed), float64(b.Attempted-a.Attempted))
		v["live.generations"] = float64(b.Generation - a.Generation)
		v["live.merges"] = float64(b.Merges - a.Merges)
		v["live.segments_end"] = float64(b.Segments)
	}
	return v
}
