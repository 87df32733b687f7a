package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"dmafault/internal/campaign"
)

func TestCampaignsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.campaigns(defaultSeed), w.campaigns(defaultSeed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations at seed %d differ", w.name, defaultSeed)
		}
		if reflect.DeepEqual(a, w.campaigns(heldOutSeed)) {
			t.Errorf("%s: seeds %d and %d generate the same campaigns", w.name, defaultSeed, heldOutSeed)
		}
		for ci, set := range a {
			want := campaignSize
			if w.fabric {
				want = fabricSetSize
			}
			if len(set) != want {
				t.Errorf("%s campaign %d: %d scenarios, want %d", w.name, ci, len(set), want)
			}
		}
	}
}

func TestMixedCampaignsAreStratified(t *testing.T) {
	for ci, set := range mixedCampaigns(heldOutSeed) {
		kinds := map[campaign.Kind]int{}
		for _, s := range set {
			kinds[s.Kind]++
			if s.Kind != campaign.KindWindowLadder && s.Kernel == "4.15" && s.Queues > 1 {
				t.Errorf("campaign %d: oversized machine in %+v", ci, s)
			}
		}
		for _, k := range []campaign.Kind{campaign.KindBootStudy, campaign.KindRingFlood, campaign.KindWindowLadder} {
			if kinds[k] != 2 {
				t.Errorf("campaign %d: %d %s scenarios, want 2", ci, kinds[k], k)
			}
		}
	}
}

// TestLedgerRepeats runs campaign 0 of every workload in two independent
// set-ups at the default seed: the sim-count ledger, the replay's boot
// count and the summary digest must agree exactly, and the replay must
// reproduce the engine.
func TestLedgerRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated machines")
	}
	for _, w := range workloads {
		var ledgers []map[string]float64
		var boots []int
		for i := 0; i < 2; i++ {
			e, err := setup(w, defaultSeed, t.TempDir(), false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if w.fabric {
				err = e.runFabric(&phase{}, nil)
			} else {
				err = e.runEngine(0, &phase{}, nil)
			}
			e.close()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			l := ledger(e.first)
			if !w.fabric {
				bc, bad, err := replayCampaign(newTracer(), e.campaigns[0], e.first)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				for _, b := range bad {
					t.Errorf("%s: replay differs from the engine: %s", w.name, b)
				}
				boots = append(boots, len(bc))
			}
			for _, f := range e.failures {
				t.Errorf("%s: %s", w.name, f)
			}
			ledgers = append(ledgers, l)
		}
		if !reflect.DeepEqual(ledgers[0], ledgers[1]) {
			t.Errorf("%s: ledgers differ:\n%v\n%v", w.name, ledgers[0], ledgers[1])
		}
		if len(boots) == 2 && (boots[0] != boots[1] || boots[0] == 0) {
			t.Errorf("%s: replay boots %v, want two equal non-zero counts", w.name, boots)
		}
		if ledgers[0]["iommu.maps"] == 0 {
			t.Errorf("%s: ledger has no IOMMU maps: %v", w.name, ledgers[0])
		}
	}
}

// TestHeldOutSeed runs every workload briefly, traced, at the held-out
// seed: outputs correct, nothing failed, the replay consistent, and
// fabric-warm booting nothing.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated machines")
	}
	for _, w := range workloads {
		rep, err := run(options{workload: w.name, seed: heldOutSeed, seconds: 2, trace: true, workdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(rep.Metrics), len(perLayer))
		}
		boots := rep.Metrics["core.boots"].Value
		if w.fabric != (boots == 0) {
			t.Errorf("%s: core.boots = %v", w.name, boots)
		}
		if rep.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: no trace overhead ratio", w.name)
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	ns := func(a, b int) span { return span{Start: int64(a), End: int64(b)} }
	root := ns(0, 100)
	got := selfTime(root, []span{ns(10, 30), ns(20, 40), ns(90, 120), ns(-5, 5), ns(50, 50)})
	// covered: [0,5) + [10,40) + [90,100) = 45
	if got != 55*time.Nanosecond {
		t.Errorf("selfTime = %v, want 55ns", got)
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
}
