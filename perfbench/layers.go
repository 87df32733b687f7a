package main

import (
	"strings"
	"time"

	"dmafault/internal/campaign"
)

// bootSpans are the replay spans that build a machine.
var bootSpans = map[string]bool{"core.boot": true, "core.new": true, "netstack.add_nic": true}

// layerMetrics derives the per-layer metrics of a traced phase. Engine
// workloads also replay campaign 0 and run the construction ladder on its
// boots; fabric-warm times reads of the shared store. Counts that grow
// with run length are given per campaign.
func layerMetrics(e *env, ph *phase, tr *tracer) map[string]float64 {
	m := ledger(e.first)
	campaigns := float64(ph.campaigns)

	if e.w.fabric {
		e.probeStore(ph)
	} else {
		boots, bad, err := replayCampaign(tr, e.campaigns[0], e.first)
		if err != nil {
			e.fail("replay: %v", err)
		}
		for _, b := range bad {
			e.fail("replay differs from the engine: %s", b)
		}
		if err := constructionLadder(tr, boots); err != nil {
			e.fail("construction ladder: %v", err)
		}
		m["bench.replay_scenarios"] = float64(len(e.campaigns[0]))
	}

	// core: boots in the replay, their share of replayed scenario time.
	boot := append(tr.named("core.boot"), tr.named("core.new")...)
	var bootMS []float64
	var bootAlloc uint64
	for _, s := range boot {
		bootMS = append(bootMS, ms(s.dur()))
		bootAlloc += s.Alloc
	}
	m["core.boots"] = float64(len(boot))
	m["core.boot_ms_p50"] = median(bootMS)
	m["core.boot_alloc_mb"] = ratio(float64(bootAlloc), float64(len(boot))) / mib
	var rootMS float64
	selfByKind := map[string][]float64{}
	tr.mu.Lock()
	all := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range all {
		if bootSpans[s.Name] && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range all {
		if kind, ok := strings.CutPrefix(s.Name, "replay."); ok {
			rootMS += ms(s.dur())
			selfByKind[kind] = append(selfByKind[kind], ms(selfTime(s, children[s.ID])))
		}
	}
	m["core.boot_share"] = ratio(sum(bootMS), rootMS)
	for _, k := range []campaign.Kind{campaign.KindBootStudy, campaign.KindRingFlood, campaign.KindWindowLadder} {
		xs := selfByKind[string(k)]
		m["attacks.self_ms."+string(k)] = ratio(sum(xs), float64(len(xs)))
	}
	m["attacks.success_ratio"] = ratio(float64(e.first.Successes), float64(e.first.Scenarios))

	// mem and kexec: the construction ladder; the workload's cost per
	// simulated slab operation.
	m["mem.new_ms"] = median(tr.durationsMS("mem.new"))
	var newAlloc uint64
	newSpans := tr.named("mem.new")
	for _, s := range newSpans {
		newAlloc += s.Alloc
	}
	m["mem.new_alloc_mb"] = ratio(float64(newAlloc), float64(len(newSpans))) / mib
	m["kexec.text_ms"] = median(tr.durationsMS("kexec.new_kernel"))
	m["kexec.gadget_scan_ms"] = median(tr.durationsMS("kexec.gadget_scan"))
	workloadMS := tr.durationsMS("dkasan.workload")
	m["dkasan.workload_ms"] = median(workloadMS)
	if e.first.Metrics != nil {
		slabOps := e.first.Metrics.Total("mem_slab_allocs_total") + e.first.Metrics.Total("mem_slab_frees_total")
		m["mem.workload_ns_per_slab_op"] = ratio(sum(workloadMS)*float64(time.Millisecond), slabOps)
	}
	m["netstack.add_nic_ms"] = median(tr.durationsMS("netstack.add_nic"))

	// campaign: engine time outside the scenarios, queueing, summary bytes.
	var selfMS []float64
	scen := groupBy(tr.named("campaign.scenario"))
	for _, r := range tr.named("campaign.run") {
		selfMS = append(selfMS, ms(selfTime(r, scen[r.Group])))
	}
	m["campaign.self_ms"] = median(selfMS)
	m["campaign.queue_wait_ms_p50"] = median(ph.queueWaitMS)
	m["campaign.summary_json_ms"] = median(ph.jsonMS)

	// resultstore.
	m["resultstore.open_ms"] = median(ph.openMS)
	if e.w.fabric {
		m["resultstore.open_ms"] = e.storeOpenMS
	}
	m["resultstore.get_us_p50"] = median(ph.gets.values())
	m["resultstore.put_us_p50"] = median(ph.puts.values())
	m["resultstore.hit_ratio"] = ratio(float64(ph.storeHits), float64(ph.storeHits+ph.storeMisses))
	m["resultstore.stores"] = ratio(float64(ph.storePuts), campaigns)

	// fabric: coordinator time outside HTTP exchanges, and its counters.
	http := tr.named("fabric.http")
	httpByGroup := groupBy(http)
	var fabSelf []float64
	for _, r := range tr.named("fabric.run") {
		fabSelf = append(fabSelf, ms(selfTime(r, httpByGroup[r.Group])))
	}
	m["fabric.http_requests"] = ratio(float64(len(http)), campaigns)
	m["fabric.http_ms"] = median(tr.durationsMS("fabric.http"))
	m["fabric.self_ms"] = median(fabSelf)
	m["fabric.shards"] = ratio(ph.fabric.shards, campaigns)
	m["fabric.leases_granted"] = ratio(ph.fabric.leases, campaigns)
	m["fabric.releases"] = ratio(ph.fabric.releases, campaigns)
	m["fabric.integrity_rejected"] = ratio(ph.fabric.rejected, campaigns)

	// faultd: worker handler time per route class, jobs per campaign.
	for _, r := range faultdRoutes {
		m["faultd.handler_ms."+r] = median(tr.durationsMS("faultd." + r))
	}
	m["faultd.jobs"] = ratio(float64(len(tr.named("faultd.submit"))), campaigns)

	m["bench.scenario_samples"] = float64(len(ph.scenarioMS))
	m["bench.campaign_samples"] = campaigns
	return m
}

func groupBy(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		out[s.Group] = append(out[s.Group], s)
	}
	return out
}

// probeStore times resultstore.Get on the shared fabric-warm store, once
// per scenario digest per round; the workers hold the store as a concrete
// type, so their own reads cannot be wrapped.
func (e *env) probeStore(ph *phase) {
	var digests []campaign.Digest
	for _, s := range e.campaigns[0] {
		digests = append(digests, campaign.ScenarioDigest(s))
	}
	for r := 0; r < fabricGetProbes; r++ {
		for _, d := range digests {
			t0 := time.Now()
			_, ok := e.store.Get(d)
			ph.gets.add(float64(time.Since(t0)) / float64(time.Microsecond))
			if !ok {
				e.fail("fabric-warm: store probe missed a digest of the warm set")
				return
			}
		}
	}
}
