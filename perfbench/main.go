// Command perfbench is the repository benchmark: it runs one named workload
// in a closed loop for a fixed time, checks every campaign's output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign-mixed --seed 2021 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dmafault/internal/campaign"
)

// processStart stands in for the process start time: the first set-up is
// timed from here.
var processStart = time.Now()

const (
	// defaultSeed is the seed whose summary digests are pinned.
	defaultSeed = 2021
	// heldOutSeed was never used while the benchmark was tuned.
	heldOutSeed = 4242
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// fabricGetProbes is how many times trace mode reads each fabric-warm
	// digest from the shared store to time resultstore.Get.
	fabricGetProbes = 20
)

const mib = 1 << 20

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, all host time or memory.
var endToEnd = []metricDef{
	{"scenarios_per_s", "1/s"},
	{"scenario_ms_p50", "ms"},
	{"scenario_ms_p90", "ms"},
	{"campaign_ms_p50", "ms"},
	{"campaign_ms_p90", "ms"},
	{"alloc_mb_per_scenario", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// ledgerFamilies are the simulated counts read from a campaign's merged
// metric snapshot; they repeat exactly for a given (workload, seed).
var ledgerFamilies = []struct{ metric, family string }{
	{"mem.slab_allocs", "mem_slab_allocs_total"},
	{"mem.page_allocs", "mem_page_allocs_total"},
	{"iommu.maps", "iommu_maps_total"},
	{"iommu.unmaps", "iommu_unmaps_total"},
	{"iommu.translations", "iommu_translations_total"},
	{"iommu.stale_iotlb_hits", "iommu_stale_iotlb_hits_total"},
	{"iommu.strict_invalidations", "iommu_strict_invalidations_total"},
	{"iommu.global_flushes", "iommu_global_flushes_total"},
	{"netstack.rx_packets", "netstack_rx_packets_total"},
	{"netstack.skbs_allocated", "netstack_skbs_allocated_total"},
	{"dkasan.events", "dkasan_events_total"},
	{"dkasan.reports", "dkasan_reports"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"core.boots", "count"},
	{"core.boot_ms_p50", "ms"},
	{"core.boot_share", "ratio"},
	{"core.boot_alloc_mb", "MiB"},
	{"mem.new_ms", "ms"},
	{"mem.new_alloc_mb", "MiB"},
	{"mem.slab_allocs", "count"},
	{"mem.page_allocs", "count"},
	{"mem.hot_hit_ratio", "ratio"},
	{"mem.workload_ns_per_slab_op", "ns"},
	{"kexec.text_ms", "ms"},
	{"kexec.gadget_scan_ms", "ms"},
	{"kexec.escalations", "count"},
	{"iommu.maps", "count"},
	{"iommu.unmaps", "count"},
	{"iommu.translations", "count"},
	{"iommu.stale_iotlb_hits", "count"},
	{"iommu.strict_invalidations", "count"},
	{"iommu.global_flushes", "count"},
	{"netstack.add_nic_ms", "ms"},
	{"netstack.rx_packets", "count"},
	{"netstack.skbs_allocated", "count"},
	{"attacks.self_ms.boot-study", "ms"},
	{"attacks.self_ms.ring-flood", "ms"},
	{"attacks.self_ms.window-ladder", "ms"},
	{"attacks.success_ratio", "ratio"},
	{"dkasan.workload_ms", "ms"},
	{"dkasan.events", "count"},
	{"dkasan.reports", "count"},
	{"campaign.self_ms", "ms"},
	{"campaign.queue_wait_ms_p50", "ms"},
	{"campaign.summary_json_ms", "ms"},
	{"resultstore.open_ms", "ms"},
	{"resultstore.get_us_p50", "us"},
	{"resultstore.put_us_p50", "us"},
	{"resultstore.hit_ratio", "ratio"},
	{"resultstore.stores", "count"},
	{"fabric.http_requests", "count"},
	{"fabric.http_ms", "ms"},
	{"fabric.self_ms", "ms"},
	{"fabric.shards", "count"},
	{"fabric.leases_granted", "count"},
	{"fabric.releases", "count"},
	{"fabric.integrity_rejected", "count"},
	{"faultd.handler_ms.submit", "ms"},
	{"faultd.handler_ms.poll", "ms"},
	{"faultd.handler_ms.readyz", "ms"},
	{"faultd.handler_ms.other", "ms"},
	{"faultd.jobs", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.failed_ratio", "ratio"},
	{"bench.scenario_samples", "count"},
	{"bench.campaign_samples", "count"},
	{"bench.replay_scenarios", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var trace int
	var pin bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch and span-dump directory")
	flag.BoolVar(&pin, "pin", false, "print the summary digests of every campaign at the default seed, as Go source")
	flag.Parse()
	o.trace = trace == 1
	if pin {
		if err := printPins(o.workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if findWorkload(o.workload) == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run sets up setupRepeats times, keeps the last set-up, and measures.
func run(o options) (*report, error) {
	w := findWorkload(o.workload)
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	var setupS []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		next, err := setup(w, o.seed, sub, o.trace)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if e != nil {
			e.close()
		}
		e = next
	}
	defer e.close()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		total0, steal0 := cpuTicks()
		ph, err := e.measure(d, nil)
		if err != nil {
			return nil, err
		}
		total1, steal1 := cpuTicks()
		m := endToEndMetrics(ph, median(setupS))
		fmt.Printf("%s seed %d: %d campaigns, %d scenario samples, %d campaign samples, host CPU stolen by other guests %.1f%%\n",
			w.name, o.seed, ph.campaigns, len(ph.scenarioMS), len(ph.campaignMS), 100*ratio(steal1-steal0, total1-total0))
		printLedger(ledger(e.first))
		return finish(e, ph.scenarios, ph.failed, endToEnd, m), nil
	}

	// Trace mode: an untraced and a traced phase of equal length give the
	// tracing overhead; the replay and the construction ladder follow.
	untraced, err := e.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := e.measure(d/2, tr)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(e, traced, tr)
	m["bench.trace_overhead_ratio"] = ratio(traced.scenariosPerS(), untraced.scenariosPerS())
	attempted := untraced.scenarios + traced.scenarios
	failed := untraced.failed + traced.failed
	m["bench.failed_ratio"] = ratio(float64(failed), float64(attempted))
	if err := tr.write(spanFile(o.workdir, w.name, o.seed)); err != nil {
		return nil, err
	}
	return finish(e, attempted, failed, perLayer, m), nil
}

func endToEndMetrics(ph *phase, setupS float64) map[string]float64 {
	return map[string]float64{
		"scenarios_per_s":       ph.scenariosPerS(),
		"scenario_ms_p50":       quantile(ph.scenarioMS, 0.5),
		"scenario_ms_p90":       quantile(ph.scenarioMS, 0.9),
		"campaign_ms_p50":       quantile(ph.campaignMS, 0.5),
		"campaign_ms_p90":       quantile(ph.campaignMS, 0.9),
		"alloc_mb_per_scenario": ratio(float64(ph.allocBytes), float64(ph.scenarios)) / mib,
		"peak_rss_mb":           peakRSSMB(),
		"setup_s":               setupS,
	}
}

// finish prints the metrics readably and builds the report.
func finish(e *env, attempted, failed int, defs []metricDef, m map[string]float64) *report {
	rep := &report{Correct: len(e.failures) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		fmt.Printf("  %-32s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Printf("  attempted %d, failed %d (failed_ratio %.4f)\n", attempted, failed, ratio(float64(failed), float64(attempted)))
	for _, f := range e.failures {
		fmt.Println("  INCORRECT:", f)
	}
	return rep
}

// ledger reads the deterministic simulated counts out of a summary.
func ledger(sum *campaign.Summary) map[string]float64 {
	out := map[string]float64{"kexec.escalations": float64(sum.Escalations)}
	if sum.Metrics == nil {
		return out
	}
	for _, f := range ledgerFamilies {
		out[f.metric] = sum.Metrics.Total(f.family)
	}
	out["mem.hot_hit_ratio"] = ratio(sum.Metrics.Total("mem_page_hot_hits_total"), out["mem.page_allocs"])
	return out
}

func printLedger(l map[string]float64) {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, l[k]))
	}
	fmt.Println("sim-count ledger (campaign 0):", strings.Join(parts, " "))
}

// printPins runs every campaign of every workload once at the default seed
// and prints the digests as the source of digests.go.
func printPins(workdir string) error {
	fmt.Println("// Code generated by perfbench --pin; DO NOT EDIT.")
	fmt.Println()
	fmt.Println("package main")
	fmt.Println()
	fmt.Printf("// pinnedDigests are the SHA-256 digests of each campaign's summary JSON\n// at seed %d.\n", defaultSeed)
	fmt.Println("var pinnedDigests = map[string][]string{")
	for _, w := range workloads {
		dir := filepath.Join(workdir, fmt.Sprintf("pin-%s-%d", w.name, os.Getpid()))
		e, err := setup(w, defaultSeed, dir, false)
		if err != nil {
			return err
		}
		for ci := range e.campaigns {
			if ci > 0 || !w.fabric {
				if err := e.runEngine(ci, &phase{}, nil); err != nil {
					e.close()
					return err
				}
			}
		}
		e.close()
		os.RemoveAll(dir)
		fmt.Printf("\t%q: {\n", w.name)
		for ci := range e.campaigns {
			fmt.Printf("\t\t%q,\n", e.digests[ci])
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	return nil
}
