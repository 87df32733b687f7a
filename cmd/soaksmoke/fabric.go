package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// The fabric phases: one coordinator per phase over the shared worker
// pool, each byte-compared against the same single-node reference run.

// fleetPlanSpec keeps the fleet phase's weather mild: enough 503s, drops,
// and torn bodies to exercise the scrape loop's failure handling without
// making the campaign itself crawl through re-leases.
const (
	fleetPlanSpec = "http-503:0.05,conn-drop:0.03,truncate:0.03"
	fleetPlanSeed = "11"
)

// chaosPlanSpec is the chaos phase's wire-fault mix. Bit flips corrupt
// result payloads (caught by the digest/identity checks), truncation tears
// poll bodies mid-document, 503s and connection drops exercise the retry
// ladder, and the rare partition takes a worker fully dark for a few
// requests so heartbeat demotion and re-lease run too.
const (
	chaosPlanSpec = "bitflip:0.25,truncate:0.08,http-503:0.08,conn-drop:0.05,partition:0.01"
	chaosPlanSeed = "11"
)

// startPool writes the stall-scenario set, runs the single-node reference,
// and spawns and preflights the three workers the fabric phases share.
func (s *soak) startPool(ctx context.Context) error {
	// Stall scenarios (~250ms each) keep every shard about a second long,
	// deterministic like any other: the campaign spans several scrape
	// rounds, the tail shard is always mid-flight with idle workers around
	// (the structural guarantee that the steal path fires), and the kills
	// land mid-lease. 28 scenarios at -shard-size 4 is 7 shards over 3
	// workers: an uneven tail, and everyone executes.
	s.setPath = filepath.Join(s.dir, "set.json")
	f, err := os.Create(s.setPath)
	if err != nil {
		return err
	}
	if err := campaign.SaveScenarios(f, stallScenarios(28)); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// The byte-identity oracle: the same set on a clean single-node engine
	// run — no fabric, no chaos, no fleet plane.
	singlePath := filepath.Join(s.dir, "single.json")
	if out, err := exec.Command(s.bin("campaign"),
		"-scenarios", s.setPath, "-out", singlePath, "-quiet").CombinedOutput(); err != nil {
		return fmt.Errorf("single-node reference run: %v\n%s", err, out)
	}
	if s.single, err = os.ReadFile(singlePath); err != nil {
		return err
	}

	// Three healthy workers; the hostility lives entirely in the
	// coordinator's transport. -workers 1 keeps shard jobs slow enough to
	// be mid-flight at kill time.
	for i := 1; i <= 3; i++ {
		w, err := s.start("worker", s.bin("dmafaultd"),
			"-addr", "127.0.0.1:0", "-workers", "1",
			"-max-concurrent-campaigns", "2", "-job-stall-timeout", "1m")
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
	}
	// Fail fast on dead workers before committing the soak budget: a
	// crashed worker should be a one-line error, not a 3-minute timeout
	// with an opaque summary mismatch at the end.
	return preflightWorkers(ctx, s.urls(), 10*time.Second)
}

func (s *soak) urls() []string {
	var urls []string
	for _, w := range s.workers {
		urls = append(urls, w.url)
	}
	return urls
}

// coordinator launches a campaign coordinator over the shared set and the
// given workers; its merged summary goes to the returned <dir>/<phase>.json.
func (s *soak) coordinator(phase string, workers []string, extra ...string) (*proc, string, error) {
	out := filepath.Join(s.dir, phase+".json")
	args := append([]string{
		"-coordinator", "-scenarios", s.setPath,
		"-worker-urls", strings.Join(workers, ","),
		"-coordinator-addr", "127.0.0.1:0",
		"-shard-size", "4", "-lease-ttl", "20s", "-fabric-heartbeat", "200ms",
		"-out", out,
	}, extra...)
	p, err := s.start("coordinator", s.bin("campaign"), args...)
	return p, out, err
}

// matchReference requires a phase's merged summary to be byte-identical to
// the single-node reference and returns its size.
func (s *soak) matchReference(path string) (int, error) {
	fab, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("fabric summary: %w", err)
	}
	if !bytes.Equal(s.single, fab) {
		return 0, fmt.Errorf("fabric summary differs from the single-node reference (%d vs %d bytes); -keep keeps %s and %s",
			len(fab), len(s.single), path, filepath.Join(s.dir, "single.json"))
	}
	return len(fab), nil
}

// fleetPhase: a -fleetobs coordinator under mild netchaos — scrapes
// included, so the telemetry plane eats torn metrics bodies and 503d
// readiness probes while the campaign runs. Observation, even degraded
// observation, never touches the bytes.
func (s *soak) fleetPhase() error {
	ctx := context.Background()
	urls := s.urls()
	coord, out, err := s.coordinator("fleet", urls,
		"-lease-attempts", "6",
		"-netchaos", fleetPlanSpec, "-netchaos-seed", fleetPlanSeed,
		"-fleetobs", "-fleet-interval", "150ms")
	if err != nil {
		return err
	}
	defer coord.kill()

	// Poll /v1/fleet while the campaign runs until every worker shows
	// attributed per-phase time, then render the same state through the
	// fabrictop binary. The poll races campaign completion, so failures here
	// are retried until the coordinator exits.
	fleetErr := make(chan error, 1)
	go func() { fleetErr <- s.watchFleet(ctx, coord.url, urls) }()

	exitErr := make(chan error, 1)
	go func() { exitErr <- coord.waitExit(3 * time.Minute) }()

	select {
	case err := <-fleetErr:
		if err != nil {
			return err
		}
		if err := <-exitErr; err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
	case err := <-exitErr:
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		// The campaign finished before the fleet assertions did: the
		// coordinator's surface is gone, so whatever the watcher saw last is
		// the verdict.
		if err := <-fleetErr; err != nil {
			return fmt.Errorf("campaign finished before the fleet plane converged: %w", err)
		}
	}
	n, err := s.matchReference(out)
	if err != nil {
		return err
	}
	s.log.Info("fleet phase finished", "workers", len(urls), "summary_bytes", n)
	return nil
}

// chaosPhase: every worker-bound request rides a deterministic netchaos
// plan that bit-flips and truncates response bodies, injects 503 storms,
// drops connections, and opens short per-host partitions. Torn and
// corrupted deliveries must be rejected (never merged), stragglers stolen
// onto idle workers, and the merged summary still byte-identical.
func (s *soak) chaosPhase() error {
	metricsPath := filepath.Join(s.dir, "chaos-metrics.txt")
	coord, out, err := s.coordinator("chaos", s.urls(),
		// -lease-attempts 6 keeps shards on the fabric through chaos-induced
		// failures (the default 3 exhausts fast under this plan and falls
		// back to local execution, which starves the steal path we assert on).
		"-lease-attempts", "6",
		"-netchaos", chaosPlanSpec, "-netchaos-seed", chaosPlanSeed,
		"-steal-after", "300ms", "-byzantine-threshold", "3",
		"-fabric-metrics", metricsPath)
	if err != nil {
		return err
	}
	defer coord.kill()
	if err := coord.waitExit(3 * time.Minute); err != nil {
		return fmt.Errorf("coordinator under chaos: %w", err)
	}
	n, err := s.matchReference(out)
	if err != nil {
		return err
	}

	// Both defenses must have actually fired: corrupted/torn deliveries
	// rejected, and at least one straggler speculatively re-leased.
	mt, err := os.ReadFile(metricsPath)
	if err != nil {
		return fmt.Errorf("fabric metrics: %w", err)
	}
	rejected, err := metricValue(mt, "fabric_integrity_rejected_total")
	if err != nil {
		return err
	}
	steals, err := metricValue(mt, "fabric_steals_total")
	if err != nil {
		return err
	}
	s.log.Info("chaos phase finished", "integrity_rejected", rejected,
		"steals", steals, "summary_bytes", n)
	return nil
}

// killPhase: w1 and w2 are static coordinator config, w3 registers at
// runtime through /v1/fabric/join. w1 is kill -9'd while it holds shard
// leases, then the coordinator itself after the re-lease is journaled; the
// coordinator restarted with -resume must finish on the survivors with the
// dead worker's results intact.
func (s *soak) killPhase() error {
	ctx := context.Background()
	w1, w2, w3 := s.workers[0], s.workers[1], s.workers[2]
	journalPath := filepath.Join(s.dir, "kill-state.jsonl")
	metricsPath := filepath.Join(s.dir, "kill-metrics.txt")
	state := []string{"-fabric-journal", journalPath, "-fabric-metrics", metricsPath}
	coord, out, err := s.coordinator("kill", []string{w1.url, w2.url}, state...)
	if err != nil {
		return err
	}
	defer coord.kill()

	// Runtime join: w3 announces itself the way dmafaultd -join would.
	if _, err := coord.c.JoinFabric(ctx, api.JoinRequest{URL: w3.url}); err != nil {
		return fmt.Errorf("join w3: %w", err)
	}
	if wl, err := coord.c.FabricWorkers(ctx); err != nil || len(wl.Workers) != 3 {
		return fmt.Errorf("worker registry after join: %+v, %v", wl, err)
	}

	// Kill w1 the moment it holds shard leases — its in-flight shards must
	// be re-leased to the survivors.
	if err := waitForLease(ctx, coord.c, w1.url, 30*time.Second); err != nil {
		return err
	}
	if err := w1.kill(); err != nil {
		return fmt.Errorf("kill -9 w1: %w", err)
	}
	s.log.Info("worker killed", "worker", w1.url)

	// The re-lease is journaled before the replacement lease is granted;
	// once it is on disk, kill the coordinator too.
	if err := waitForJournal(journalPath, `"released":`, 60*time.Second); err != nil {
		return err
	}
	if err := coord.kill(); err != nil {
		return fmt.Errorf("kill -9 coordinator: %w", err)
	}
	s.log.Info("coordinator killed", "journal", journalPath)

	coord2, _, err := s.coordinator("kill", []string{w2.url, w3.url}, append(state, "-resume")...)
	if err != nil {
		return fmt.Errorf("coordinator restart: %w", err)
	}
	defer coord2.kill()
	if err := coord2.waitExit(3 * time.Minute); err != nil {
		return fmt.Errorf("resumed coordinator: %w", err)
	}
	n, err := s.matchReference(out)
	if err != nil {
		return err
	}

	// fabric_releases_total survives the coordinator kill via journal
	// replay; > 0 proves the dead-worker path actually fired.
	mt, err := os.ReadFile(metricsPath)
	if err != nil {
		return fmt.Errorf("fabric metrics: %w", err)
	}
	releases, err := metricValue(mt, "fabric_releases_total")
	if err != nil {
		return err
	}

	// Survivors drain cleanly.
	for _, w := range []*proc{w2, w3} {
		if err := w.term(15 * time.Second); err != nil {
			return fmt.Errorf("worker shutdown: %w", err)
		}
	}
	s.log.Info("kill phase finished", "releases", releases, "summary_bytes", n)
	return nil
}

// preflightWorkers verifies every URL answers /healthz within the budget.
// Each unreachable worker is named in the error so the operator knows
// exactly which endpoint to fix.
func preflightWorkers(ctx context.Context, urls []string, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	down := make([]bool, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			cl := faultdclient.New(u)
			for {
				if body, err := cl.Health(ctx); err == nil && body == "ok" {
					return
				}
				if ctx.Err() != nil {
					down[i] = true
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		}(i, u)
	}
	wg.Wait()
	var dead []string
	for i, u := range urls {
		if down[i] {
			dead = append(dead, u)
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("worker preflight failed: unreachable at startup: %s "+
			"(no /healthz response within %s — check the worker URLs before soaking)",
			strings.Join(dead, ", "), budget)
	}
	return nil
}

// waitForLease polls the coordinator's worker registry until the worker
// holds at least one shard lease.
func waitForLease(ctx context.Context, cc *faultdclient.Client, worker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		wl, err := cc.FabricWorkers(ctx)
		if err != nil {
			return err
		}
		for _, w := range wl.Workers {
			if w.URL == worker && w.Leases > 0 {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("worker %s never held a lease", worker)
}

// waitForJournal polls the coordinator state log for a marker substring.
func waitForJournal(path, marker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && strings.Contains(string(data), marker) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("state log %s never recorded %s", path, marker)
}

// metricValue extracts one unlabelled counter from a metrics exposition and
// requires it to be positive — OmitZero means an exceptional-condition
// family that never fired is absent entirely, which is equally a failure.
func metricValue(exposition []byte, name string) (float64, error) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindSubmatch(exposition)
	if m == nil {
		return 0, fmt.Errorf("%s missing from the fabric metrics — the path it counts never fired", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil || !(v > 0) { // !(v > 0) also rejects NaN
		return 0, fmt.Errorf("%s = %s, want > 0", name, m[1])
	}
	return v, nil
}

// watchFleet polls the coordinator's /v1/fleet until every worker carries
// nonzero per-phase latency totals. fabrictop -once renders the same
// surface and must list every worker; it runs as soon as the snapshot does,
// while most of the campaign is still ahead, because a render left until
// convergence can lose the race with the coordinator's exit. Returns the
// last observation error if the surface disappears (coordinator exit)
// before converging.
func (s *soak) watchFleet(ctx context.Context, coordURL string, workers []string) error {
	cl := faultdclient.New(coordURL)
	cl.Retries = -1 // the poll loop is its own retry
	deadline := time.Now().Add(3 * time.Minute)
	lastErr := fmt.Errorf("never observed a fleet snapshot")
	rendered := false
	for time.Now().Before(deadline) {
		fs, err := cl.Fleet(ctx)
		if err == nil && !rendered && len(fs.Workers) == len(workers) {
			if err := s.checkFabrictop(coordURL, workers); err != nil {
				return err
			}
			rendered = true
			s.log.Info("fabrictop -once lists every worker", "workers", len(workers))
		}
		if err == nil {
			err = fleetConverged(fs, workers)
		}
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		s.log.Info("fleet converged: all workers attributed", "workers", len(fs.Workers))
		return nil
	}
	return lastErr
}

// checkFabrictop requires the fabrictop -once rendering to list every worker.
func (s *soak) checkFabrictop(coordURL string, workers []string) error {
	out, err := exec.Command(s.bin("fabrictop"), "-coordinator", coordURL, "-once").CombinedOutput()
	if err != nil {
		return fmt.Errorf("fabrictop -once: %v\n%s", err, out)
	}
	for _, u := range workers {
		host := strings.TrimPrefix(u, "http://")
		if !strings.Contains(string(out), host) {
			return fmt.Errorf("fabrictop -once output missing worker %s:\n%s", host, out)
		}
	}
	return nil
}

// fleetConverged checks one snapshot for full attribution: every worker
// has delivered and has nonzero queue-wait, execute and publish totals.
func fleetConverged(fs *api.FleetSnapshot, workers []string) error {
	if len(fs.Workers) != len(workers) {
		return fmt.Errorf("fleet shows %d workers, want %d", len(fs.Workers), len(workers))
	}
	for _, w := range fs.Workers {
		if w.Delivered == 0 {
			return fmt.Errorf("worker %s has delivered nothing yet", w.URL)
		}
		pt := w.PhaseTotals
		if pt.QueueWait <= 0 || pt.Execute <= 0 || pt.Publish <= 0 {
			return fmt.Errorf("worker %s phase totals not all nonzero: %+v", w.URL, pt)
		}
	}
	return nil
}
