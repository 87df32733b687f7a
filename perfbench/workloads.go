package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/fabric"
	"dmafault/internal/faultd"
	"dmafault/internal/resultstore"
)

// Load is sized for a 2-CPU host.
const (
	// engineWorkers is the local engine's pool size.
	engineWorkers = 2
	// fabricNodes is the number of in-process faultd workers, each with a
	// one-worker engine.
	fabricNodes = 2
	// campaignSize is the scenario count of one engine campaign.
	campaignSize = 6
	// engineCampaigns is how many distinct campaigns an engine workload
	// generates; a run cycles through them in order.
	engineCampaigns = 24
	// mixedStream is how many campaign.MixedPreset scenarios the
	// campaign-mixed campaigns are drawn from.
	mixedStream = 512
	// fabricSetSize is the scenario count of the fabric-warm campaign.
	fabricSetSize = 32
	// fabricShardSize is scenarios per fabric lease.
	fabricShardSize = 8
	// fabricRestartEvery is how many campaigns a generation of fabric
	// workers serves before it is replaced. A faultd worker keeps every
	// finished job in memory; without restarts peak RSS would grow with
	// the number of campaigns a run completes, so a faster fabric would
	// read as a memory regression.
	fabricRestartEvery = 200
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// campaigns generates the workload's campaigns; a pure function of
	// the seed and the only input the program sees.
	campaigns func(seed int64) [][]campaign.Scenario
	// fabric selects the distributed path: warm coordinator campaigns
	// against in-process faultd workers instead of cold engine campaigns.
	fabric bool
}

var workloads = []*workload{
	{
		name:      "campaign-mixed",
		why:       "cold mixed-preset campaigns: boot-study, ring-flood and window-ladder; time is dominated by machine construction",
		campaigns: mixedCampaigns,
	},
	{
		name:      "dkasan-soak",
		why:       "D-KASAN build+ping soaks of tens of thousands of iterations; time is in the allocator, sanitizer and DMA datapath",
		campaigns: dkasanCampaigns,
	},
	{
		name:      "fabric-warm",
		why:       "ladder campaigns through the fabric coordinator to two faultd workers with a pre-filled result cache: no boots",
		campaigns: fabricCampaigns,
		fabric:    true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mixedCampaigns draws campaigns from one campaign.MixedPreset stream,
// stratified so that every campaign holds two scenarios of each kind,
// longest kind first: the two workers then finish together, and a
// campaign's tail does not hinge on which worker claims what. Boot studies and ring floods that would boot a machine
// larger than the default 128 MiB (kernel 4.15 with more than one RX
// queue, a few percent of the stream) are skipped: whether a run holds
// two or four of them moves its throughput and peak RSS by more than the
// bounds allow.
func mixedCampaigns(seed int64) [][]campaign.Scenario {
	kinds := []campaign.Kind{campaign.KindRingFlood, campaign.KindBootStudy, campaign.KindWindowLadder}
	byKind := map[campaign.Kind][]campaign.Scenario{}
	for _, s := range campaign.MixedPreset(mixedStream, seed) {
		if s.Kind != campaign.KindWindowLadder && s.Kernel == "4.15" && s.Queues > 1 {
			continue
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	out := make([][]campaign.Scenario, engineCampaigns)
	for c := range out {
		for len(out[c]) < campaignSize {
			k := kinds[len(out[c])/2]
			out[c] = append(out[c], byKind[k][0])
			byKind[k] = byKind[k][1:]
		}
	}
	return out
}

// dkasanCampaigns builds D-KASAN soak campaigns: every campaign holds one
// scenario per (48k, 32k or 16k build+ping iterations) x (IOMMU mode),
// longest first as in mixedCampaigns, with the driver model and kernel
// rotating across campaigns and seeded machine seeds.
func dkasanCampaigns(seed int64) [][]campaign.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x50a4))
	modes := []string{"deferred", "strict"}
	drivers := []string{"i40e", "correct", "mlx5_core-5.0"}
	kernels := []string{"5.0", "4.15"}
	driverOff, kernelOff := rng.Intn(len(drivers)), rng.Intn(len(kernels))
	out := make([][]campaign.Scenario, engineCampaigns)
	for c := range out {
		for j := 0; j < campaignSize; j++ {
			n := int64(c*campaignSize + j)
			out[c] = append(out[c], campaign.Scenario{
				Kind:       campaign.KindDKASAN,
				Seed:       seed + n*7919 + int64(rng.Intn(1000)),
				Iterations: 16384 * (3 - j/2),
				Mode:       modes[j%len(modes)],
				Driver:     drivers[(j+c+driverOff)%len(drivers)],
				Kernel:     kernels[(j+c+kernelOff)%len(kernels)],
			})
		}
	}
	return out
}

// fabricCampaigns is one ladder-preset campaign, repeated warm.
func fabricCampaigns(seed int64) [][]campaign.Scenario {
	return [][]campaign.Scenario{campaign.LadderPreset(fabricSetSize, seed)}
}

// env is everything one set-up builds: the generated campaigns and, for
// fabric-warm, the shared store, the faultd workers and the reference bytes.
type env struct {
	w         *workload
	seed      int64
	dir       string
	campaigns [][]campaign.Scenario

	// digests holds the SHA-256 of each campaign's summary JSON, from its
	// first execution in this process.
	digests map[int]string
	// first is campaign 0's latest summary, for the sim-count ledger and
	// the replay.
	first *campaign.Summary
	// failures lists correctness failures; any makes the run incorrect.
	failures []string

	store       *resultstore.Store
	storeOpenMS float64
	servers     []*faultd.Server
	https       []*httptest.Server
	urls        []string
	want        []byte // the local engine's summary of the fabric set
	// traceHandlers wraps the worker handlers in timedHandler; generation
	// counts worker restarts.
	traceHandlers bool
	generation    int
	// active and group drive the worker handler spans (trace mode only).
	active atomic.Pointer[tracer]
	group  atomic.Int64
	serial int // campaigns run, names scratch files
}

func (e *env) fail(format string, args ...any) {
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// setup generates the workload's campaigns and readies the system under
// test. Engine workloads warm up on the first scenario once, uncached, so
// the first timed campaign does not pay the process's heap growth.
// fabric-warm opens the shared store, starts the workers and fills the
// store with a cold local engine run, whose summary is the reference the
// fabric's bytes must match.
func setup(w *workload, seed int64, dir string, traceHandlers bool) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, dir: dir, campaigns: w.campaigns(seed), digests: map[int]string{}}
	if !w.fabric {
		if _, err := (campaign.Engine{Workers: engineWorkers}).Run(e.campaigns[0][:1]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return e, nil
	}
	t0 := time.Now()
	st, err := resultstore.Open(filepath.Join(dir, "store.bin"))
	if err != nil {
		return nil, err
	}
	e.store, e.storeOpenMS = st, ms(time.Since(t0))
	e.traceHandlers = traceHandlers
	if err := e.startWorkers(); err != nil {
		e.close()
		return nil, err
	}
	sum, err := campaign.Engine{Workers: engineWorkers, Cache: st}.Run(e.campaigns[0])
	if err != nil {
		e.close()
		return nil, fmt.Errorf("cold fill: %w", err)
	}
	if e.want, err = sum.JSON(); err != nil {
		e.close()
		return nil, err
	}
	e.first = sum
	e.check(0, e.want)
	return e, nil
}

// startWorkers starts a fresh generation of faultd workers on the shared
// store, each with its own journal directory.
func (e *env) startWorkers() error {
	e.generation++
	for i := 0; i < fabricNodes; i++ {
		srv := faultd.NewServer()
		srv.Workers = 1
		srv.Cache = e.store
		srv.JournalDir = filepath.Join(e.dir, fmt.Sprintf("worker%d-%d", e.generation, i))
		if err := os.MkdirAll(srv.JournalDir, 0o755); err != nil {
			return err
		}
		var h http.Handler = srv.Handler()
		if e.traceHandlers {
			h = timedHandler(h, &e.active, &e.group)
		}
		ts := httptest.NewServer(h)
		e.servers = append(e.servers, srv)
		e.https = append(e.https, ts)
		e.urls = append(e.urls, ts.URL)
	}
	return nil
}

// stopWorkers stops the workers and removes their journals.
func (e *env) stopWorkers() {
	for _, ts := range e.https {
		ts.Close()
	}
	for _, srv := range e.servers {
		srv.CancelAll()
		srv.Wait()
		os.RemoveAll(srv.JournalDir)
	}
	e.servers, e.https, e.urls = nil, nil, nil
}

// close stops the workers and releases the store; the scratch directory
// is removed by the caller.
func (e *env) close() {
	e.stopWorkers()
	if e.store != nil {
		e.store.Close()
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// phase is what one closed-loop measurement observed.
type phase struct {
	campaigns  int
	scenarios  int
	failed     int
	allocBytes uint64
	campaignMS []float64
	scenarioMS []float64

	// Trace-mode observations.
	queueWaitMS []float64
	jsonMS      []float64
	openMS      []float64
	gets, puts  samples
	storeHits   int64
	storeMisses int64
	storePuts   int64
	fabric      fabricCounts
}

// fabricCounts sums the coordinators' fabric_* counters.
type fabricCounts struct {
	shards, leases, releases, rejected float64
}

// scenariosPerS is the throughput of the median campaign: a workload's
// campaigns all hold the same number of scenarios, and the median keeps a
// few seconds of interference from a noisy neighbour out of the figure.
func (p *phase) scenariosPerS() float64 {
	return ratio(float64(p.scenarios)/float64(p.campaigns), median(p.campaignMS)/1000)
}

// measure runs campaigns back to back, cycling through the workload's set,
// until d has passed (at least one campaign). With a tracer it records
// spans and per-layer observations as it goes.
func (e *env) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	e.active.Store(tr)
	defer e.active.Store(nil)
	start := time.Now()
	for i := 0; ph.campaigns == 0 || time.Since(start) < d; i++ {
		ci := i % len(e.campaigns)
		var err error
		if e.w.fabric {
			if i > 0 && i%fabricRestartEvery == 0 {
				e.stopWorkers()
				err = e.startWorkers()
			}
			if err == nil {
				err = e.runFabric(ph, tr)
			}
		} else {
			err = e.runEngine(ci, ph, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// failedResults counts scenarios that did not complete cleanly: an error,
// a panic, a timeout or a quarantine.
func failedResults(sum *campaign.Summary) int {
	n := 0
	for _, r := range sum.Results {
		if r.Err != "" || r.Outcome != "" {
			n++
		}
	}
	return n
}

// check compares a campaign's summary bytes with its first execution in
// this process and, at the default seed, with the pinned digest.
func (e *env) check(ci int, b []byte) {
	got := digest(b)
	if prev, ok := e.digests[ci]; ok && prev != got {
		e.fail("%s campaign %d: summary digest %s differs from this run's earlier %s", e.w.name, ci, got, prev)
	}
	e.digests[ci] = got
	if e.seed != defaultSeed {
		return
	}
	if pin := pinnedDigests[e.w.name]; ci < len(pin) && pin[ci] != got {
		e.fail("%s campaign %d: summary digest %s, pinned %s", e.w.name, ci, got, pin[ci])
	}
}

// runEngine runs one cold engine campaign with a fresh result store and
// journal.
func (e *env) runEngine(ci int, ph *phase, tr *tracer) error {
	set := e.campaigns[ci]
	e.serial++
	base := filepath.Join(e.dir, fmt.Sprintf("c%d", e.serial))
	claim := make([]time.Time, len(set))
	lat := make([]float64, len(set))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	st, err := resultstore.Open(base + ".store")
	if err != nil {
		return err
	}
	opened := time.Now()
	j, err := campaign.OpenJournal(base+".journal", set, false)
	if err != nil {
		st.Close()
		return err
	}
	eng := campaign.Engine{
		Workers: engineWorkers,
		Cache:   st,
		Journal: j,
		// A scenario is claimed and finished on the same worker goroutine,
		// and Run waits for every worker, so index-addressed slots need
		// no lock.
		OnClaim:  func(i int) { claim[i] = time.Now() },
		OnResult: func(i int, _ *campaign.Result) { lat[i] = ms(time.Since(claim[i])) },
	}
	var ts *timedStore
	if tr != nil {
		ts = &timedStore{inner: st, gets: &ph.gets, puts: &ph.puts}
		eng.Cache = ts
	}
	runStart := time.Now()
	sum, runErr := eng.Run(set)
	runEnd := time.Now()
	jErr := j.Close()
	stats := st.Stats()
	sErr := st.Close()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	os.Remove(base + ".store")
	os.Remove(base + ".journal")
	for _, err := range []error{runErr, jErr, sErr} {
		if err != nil {
			return fmt.Errorf("campaign %d: %w", ci, err)
		}
	}

	ph.campaigns++
	ph.scenarios += len(set)
	ph.failed += failedResults(sum)
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.campaignMS = append(ph.campaignMS, ms(wall))
	ph.scenarioMS = append(ph.scenarioMS, lat...)

	jsonStart := time.Now()
	b, err := sum.JSON()
	if err != nil {
		return err
	}
	if tr != nil {
		group := int64(e.serial)
		tr.record(span{Name: "campaign.run", Group: group, Start: tr.at(runStart), End: tr.at(runEnd)})
		for i := range set {
			tr.record(span{Name: "campaign.scenario", Group: group,
				Start: tr.at(claim[i]), End: tr.at(claim[i]) + int64(lat[i]*float64(time.Millisecond))})
			ph.queueWaitMS = append(ph.queueWaitMS, ms(claim[i].Sub(runStart)))
		}
		ph.jsonMS = append(ph.jsonMS, ms(time.Since(jsonStart)))
		ph.openMS = append(ph.openMS, ms(opened.Sub(t0)))
		ph.storeHits += ts.hits.Load()
		ph.storeMisses += ts.miss.Load()
		ph.storePuts += int64(stats.Stores)
	}
	e.check(ci, b)
	if ci == 0 {
		e.first = sum
	}
	return nil
}

// runFabric runs the warm campaign once through a fresh coordinator.
func (e *env) runFabric(ph *phase, tr *tracer) error {
	set := e.campaigns[0]
	e.serial++
	journal := filepath.Join(e.dir, fmt.Sprintf("coord%d.log", e.serial))
	group := int64(e.serial)
	e.group.Store(group)
	var mu sync.Mutex
	var lat []float64
	var t0 time.Time
	cfg := fabric.Config{
		Workers:     e.urls,
		ShardSize:   fabricShardSize,
		Heartbeat:   100 * time.Millisecond,
		JournalPath: journal,
		OnResult: func(int, *campaign.Result) {
			d := ms(time.Since(t0))
			mu.Lock()
			lat = append(lat, d)
			mu.Unlock()
		},
	}
	if tr != nil {
		cfg.Transport = &timedTransport{inner: http.DefaultTransport, tr: tr, group: &e.group}
	}
	before := e.store.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 = time.Now()
	c := fabric.New(cfg)
	sum, err := c.Run(context.Background(), set)
	runEnd := time.Now()
	wall := runEnd.Sub(t0)
	runtime.ReadMemStats(&m1)
	os.Remove(journal)
	if err != nil {
		return fmt.Errorf("fabric campaign: %w", err)
	}
	after := e.store.Stats()
	fm := c.Metrics()

	ph.campaigns++
	ph.scenarios += len(set)
	ph.failed += failedResults(sum) + int(fm.IntegrityRejected.Value())
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.campaignMS = append(ph.campaignMS, ms(wall))
	mu.Lock()
	ph.scenarioMS = append(ph.scenarioMS, lat...)
	mu.Unlock()

	if after.Misses != before.Misses || after.Stores != before.Stores {
		e.fail("fabric-warm: workers executed scenarios (%d cache misses, %d stores); the warm cache must serve every one",
			after.Misses-before.Misses, after.Stores-before.Stores)
	}
	jsonStart := time.Now()
	b, err := sum.JSON()
	if err != nil {
		return err
	}
	if tr != nil {
		tr.record(span{Name: "fabric.run", Group: group, Start: tr.at(t0), End: tr.at(runEnd)})
		ph.jsonMS = append(ph.jsonMS, ms(time.Since(jsonStart)))
		ph.storeHits += int64(after.Hits - before.Hits)
		ph.storeMisses += int64(after.Misses - before.Misses)
		ph.storePuts += int64(after.Stores - before.Stores)
		ph.fabric.shards += fm.ShardsTotal.Value()
		ph.fabric.leases += float64(fm.LeasesGranted.Value())
		ph.fabric.releases += float64(fm.Releases.Value())
		ph.fabric.rejected += float64(fm.IntegrityRejected.Value())
	}
	if !bytes.Equal(b, e.want) {
		e.fail("fabric-warm campaign %d: summary differs from the local engine's summary of the same set", e.serial)
	}
	e.check(0, b)
	e.first = sum
	return nil
}
