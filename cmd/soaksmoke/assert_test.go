package main

import (
	"strings"
	"testing"

	"dmafault/internal/faultd/api"
)

// TestMetricValue pins the counter gates the chaos and kill phases rest on:
// only a present, numeric, positive sample of exactly the named family
// passes.
func TestMetricValue(t *testing.T) {
	const name = "fabric_steals_total"
	cases := []struct {
		desc, exposition string
		want             float64 // 0: an error naming the family is expected
	}{
		{"positive", "# TYPE fabric_steals_total counter\nfabric_steals_total 3\n", 3},
		{"float form", "fabric_steals_total 1.5e+01\n", 15},
		{"among other families", "fabric_releases_total 2\nfabric_steals_total 4\nfabric_shards_total 7\n", 4},
		{"missing", "fabric_releases_total 2\n", 0},
		{"empty exposition", "", 0},
		{"prefix of another family", "fabric_steals_total_seconds 9\n", 0},
		{"zero", "fabric_steals_total 0\n", 0},
		{"negative", "fabric_steals_total -1\n", 0},
		{"non-numeric", "fabric_steals_total NaN\n", 0},
		{"garbage", "fabric_steals_total three\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			got, err := metricValue([]byte(tc.exposition), name)
			if tc.want == 0 {
				if err == nil {
					t.Fatalf("accepted %q as %v", tc.exposition, got)
				}
				if !strings.Contains(err.Error(), name) {
					t.Fatalf("error does not name %s: %v", name, err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("metricValue = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// TestFleetConverged pins the fleet phase's gate: every configured worker
// must be listed, have delivered, and carry all three phase totals.
func TestFleetConverged(t *testing.T) {
	urls := []string{"http://w1", "http://w2", "http://w3"}
	full := func() *api.FleetSnapshot {
		fs := &api.FleetSnapshot{}
		for _, u := range urls {
			fs.Workers = append(fs.Workers, api.FleetWorker{URL: u, Delivered: 2,
				PhaseTotals: api.PhaseSeconds{QueueWait: 0.1, Execute: 1, Publish: 0.01}})
		}
		return fs
	}
	cases := []struct {
		desc   string
		mutate func(fs *api.FleetSnapshot)
	}{
		{"missing worker", func(fs *api.FleetSnapshot) { fs.Workers = fs.Workers[:2] }},
		{"extra worker", func(fs *api.FleetSnapshot) { fs.Workers = append(fs.Workers, fs.Workers[0]) }},
		{"no workers", func(fs *api.FleetSnapshot) { fs.Workers = nil }},
		{"nothing delivered", func(fs *api.FleetSnapshot) { fs.Workers[1].Delivered = 0 }},
		{"zero queue-wait", func(fs *api.FleetSnapshot) { fs.Workers[2].PhaseTotals.QueueWait = 0 }},
		{"zero execute", func(fs *api.FleetSnapshot) { fs.Workers[0].PhaseTotals.Execute = 0 }},
		{"zero publish", func(fs *api.FleetSnapshot) { fs.Workers[1].PhaseTotals.Publish = 0 }},
	}
	if err := fleetConverged(full(), urls); err != nil {
		t.Fatalf("full attribution rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			fs := full()
			tc.mutate(fs)
			if err := fleetConverged(fs, urls); err == nil {
				t.Fatalf("accepted %+v", fs.Workers)
			}
		})
	}
}
