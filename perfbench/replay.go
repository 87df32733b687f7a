package main

import (
	"fmt"
	"runtime"
	"sort"

	"dmafault/internal/attacks"
	"dmafault/internal/campaign"
	"dmafault/internal/core"
	"dmafault/internal/dkasan"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/netstack"
	simload "dmafault/internal/workload"
)

// The replay pass re-runs each scenario of a campaign, one at a time,
// through the public entry points the campaign runner uses, with a span
// around every call: "core.boot" (attacks.BootOnceOpts, which builds the
// machine and its RX rings), "core.new", "netstack.add_nic", the attack
// runners, and "dkasan.workload" (workload.Run). Each scenario is a root
// span; its children give self time per layer. Its outcome must match the
// engine's, or the per-layer numbers are void.

// attackerDev is the requester ID the campaign runner gives the NIC.
const attackerDev iommu.DeviceID = 1

// traceRingCap matches the forensic ring the runner attaches to
// single-boot attack machines.
const traceRingCap = 512

// bootConfig is what the construction ladder needs to rebuild a boot.
type bootConfig struct {
	seed      int64
	kaslr     bool
	physBytes uint64
	cpus      int
}

// outcome is the part of a scenario's result the replay must reproduce.
type outcome struct {
	success     bool
	escalations int
	windowPath  string
	metrics     map[string]string
}

type replayer struct {
	tr    *tracer
	group int64
	boots []bootConfig
}

// timed runs fn as a span under parent; with alloc it also records the
// TotalAlloc delta (the replay runs on one goroutine, so it is fn's own).
func (rp *replayer) timed(name string, parent int64, alloc bool, fn func() error) error {
	var m0, m1 runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&m0)
	}
	sp := rp.tr.begin(name, parent, rp.group)
	err := fn()
	if alloc {
		runtime.ReadMemStats(&m1)
		sp.Alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	rp.tr.end(sp)
	return err
}

// replayCampaign replays set against the engine's summary of it and
// returns the mismatches.
func replayCampaign(tr *tracer, set []campaign.Scenario, sum *campaign.Summary) ([]bootConfig, []string, error) {
	rp := &replayer{tr: tr}
	var bad []string
	for i, s := range set {
		s.Normalize(i)
		rp.group = int64(i)
		root := tr.begin("replay."+string(s.Kind), 0, rp.group)
		o, err := rp.scenario(s, root.ID)
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", s.ID, err)
		}
		if i >= len(sum.Results) {
			return nil, nil, fmt.Errorf("replay %s: summary has %d results", s.ID, len(sum.Results))
		}
		if msg := mismatch(o, sum.Results[i]); msg != "" {
			bad = append(bad, fmt.Sprintf("%s: %s", s.ID, msg))
		}
	}
	return rp.boots, bad, nil
}

// mismatch compares a replayed outcome with the engine's result.
func mismatch(o *outcome, r *campaign.Result) string {
	if r.Err != "" {
		return "engine result has error " + r.Err
	}
	if o.success != r.Success || o.escalations != r.Escalations || o.windowPath != r.WindowPath {
		return fmt.Sprintf("replay success=%v escalations=%d path=%q, engine success=%v escalations=%d path=%q",
			o.success, o.escalations, o.windowPath, r.Success, r.Escalations, r.WindowPath)
	}
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if o.metrics[k] != r.Metrics[k] {
			return fmt.Sprintf("%s: replay %q, engine %q", k, o.metrics[k], r.Metrics[k])
		}
	}
	return ""
}

func (rp *replayer) scenario(s campaign.Scenario, parent int64) (*outcome, error) {
	switch s.Kind {
	case campaign.KindBootStudy:
		st, err := rp.bootStudy(s, parent, attacks.BootOptions{JitterPages: jitter(s), Queues: s.Queues})
		if err != nil {
			return nil, err
		}
		return &outcome{success: st.ModalRate > 0.5,
			metrics: map[string]string{"modal_rate": fmt.Sprintf("%.4f", st.ModalRate)}}, nil
	case campaign.KindRingFlood:
		return rp.ringFlood(s, parent)
	case campaign.KindWindowLadder:
		return rp.windowLadder(s, parent)
	case campaign.KindDKASAN:
		return rp.dkasan(s, parent)
	}
	return nil, fmt.Errorf("no replay for kind %s", s.Kind)
}

// boot is attacks.BootOnceOpts under a "core.boot" span.
func (rp *replayer) boot(v attacks.KernelVersion, seed int64, o attacks.BootOptions, parent int64) (*core.System, *netstack.NIC, *attacks.BootRecord, error) {
	var sys *core.System
	var nic *netstack.NIC
	var rec *attacks.BootRecord
	err := rp.timed("core.boot", parent, true, func() (err error) {
		sys, nic, rec, err = attacks.BootOnceOpts(v, seed, o)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rp.boots = append(rp.boots, bootConfig{seed: seed, kaslr: true,
		physBytes: sys.Layout.PhysBytes, cpus: max(o.Queues, 2)})
	return sys, nic, rec, nil
}

// bootStudy boots the study's trials one at a time and derives the modal
// frame statistics attacks.RunBootStudyOpts computes (§5.3).
func (rp *replayer) bootStudy(s campaign.Scenario, parent int64, o attacks.BootOptions) (*attacks.BootStudy, error) {
	v := kernelVersion(s)
	recs := make([]*attacks.BootRecord, s.Trials)
	for i := range recs {
		_, _, rec, err := rp.boot(v, s.Seed+int64(i), o, parent)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	st := &attacks.BootStudy{Version: v, Trials: s.Trials, Freq: map[layout.PFN]int{}}
	for _, rec := range recs {
		for p := range rec.BufStart {
			st.Freq[p]++
		}
	}
	best := -1
	for p, off := range recs[0].BufStart {
		if c := st.Freq[p]; c > best || (c == best && p < st.ModalPFN) {
			best, st.ModalPFN, st.ModalOffset = c, p, off
		}
	}
	st.ModalRate = float64(best) / float64(s.Trials)
	return st, nil
}

func (rp *replayer) ringFlood(s campaign.Scenario, parent int64) (*outcome, error) {
	study, err := rp.bootStudy(s, parent, attacks.BootOptions{JitterPages: jitter(s), Queues: s.Queues})
	if err != nil {
		return nil, err
	}
	v := kernelVersion(s)
	o := &outcome{metrics: map[string]string{}}
	hits := 0
	paths := map[string]int{}
	for i := 0; i < s.Attempts; i++ {
		sys, nic, _, err := rp.boot(v, s.Seed+1_000_000+int64(i),
			attacks.BootOptions{JitterPages: attacks.BootJitterPages}, parent)
		if err != nil {
			return nil, err
		}
		var res *attacks.Result
		rp.timed("attacks.ring_flood", parent, false, func() error {
			res = attacks.RunRingFlood(sys, nic, study)
			return nil
		})
		o.escalations += res.Escalations
		if res.Success {
			hits++
		}
		if p := res.Detail["window_path"]; p != "" {
			paths[p]++
		}
	}
	o.success = hits > 0
	o.metrics["hits"] = fmt.Sprintf("%d", hits)
	o.metrics["modal_rate"] = fmt.Sprintf("%.4f", study.ModalRate)
	for p, n := range paths {
		o.metrics["path["+p+"]"] = fmt.Sprintf("%d", n)
	}
	return o, nil
}

// newSystem is core.New under a "core.new" span.
func (rp *replayer) newSystem(s campaign.Scenario, parent int64, extra core.Option) (*core.System, error) {
	opts, cfg := bootOptions(s)
	var sys *core.System
	err := rp.timed("core.new", parent, true, func() (err error) {
		sys, err = core.New(append(opts, extra)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg.physBytes = sys.Layout.PhysBytes
	rp.boots = append(rp.boots, cfg)
	return sys, nil
}

func (rp *replayer) addNIC(s campaign.Scenario, sys *core.System, parent int64) (*netstack.NIC, error) {
	var nic *netstack.NIC
	err := rp.timed("netstack.add_nic", parent, false, func() (err error) {
		nic, err = sys.AddNIC(attackerDev, driverModel(s), 0)
		return err
	})
	return nic, err
}

func (rp *replayer) windowLadder(s campaign.Scenario, parent int64) (*outcome, error) {
	sys, err := rp.newSystem(s, parent, core.WithTracing(traceRingCap))
	if err != nil {
		return nil, err
	}
	nic, err := rp.addNIC(s, sys, parent)
	if err != nil {
		return nil, err
	}
	var path attacks.WindowPath
	err = rp.timed("attacks.window_ladder", parent, false, func() (err error) {
		path, err = attacks.ProbeTimeWindow(sys, nic, attacks.PickNeighborSlot(nic))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &outcome{success: path != attacks.WindowNone, windowPath: path.String()}, nil
}

func (rp *replayer) dkasan(s campaign.Scenario, parent int64) (*outcome, error) {
	dk := dkasan.New()
	sys, err := rp.newSystem(s, parent, core.WithTracer(dk))
	if err != nil {
		return nil, err
	}
	dk.Attach(sys.Mem, sys.Mapper)
	nic, err := rp.addNIC(s, sys, parent)
	if err != nil {
		return nil, err
	}
	err = rp.timed("dkasan.workload", parent, false, func() error {
		_, err := simload.Run(sys, nic, simload.Config{Iterations: s.Iterations, NICDevice: attackerDev})
		return err
	})
	if err != nil {
		return nil, err
	}
	st := dk.Stats()
	return &outcome{success: len(dk.Reports()) > 0, metrics: map[string]string{
		"alloc_after_map":  fmt.Sprintf("%d", st.AllocAfterMap),
		"map_after_alloc":  fmt.Sprintf("%d", st.MapAfterAlloc),
		"access_after_map": fmt.Sprintf("%d", st.AccessAfterMap),
		"multiple_map":     fmt.Sprintf("%d", st.MultipleMap),
		"reports":          fmt.Sprintf("%d", len(dk.Reports())),
	}}, nil
}

// bootOptions mirrors the runner's spec → core.New options for a
// scenario without a fault plan.
func bootOptions(s campaign.Scenario) ([]core.Option, bootConfig) {
	mode := iommu.Deferred
	if s.Mode == "strict" {
		mode = iommu.Strict
	}
	opts := []core.Option{core.WithSeed(s.Seed), core.WithKASLR(!s.NoKASLR), core.WithIOMMUMode(mode)}
	cfg := bootConfig{seed: s.Seed, kaslr: !s.NoKASLR, cpus: core.DefaultCPUs}
	if s.CPUs > 0 {
		opts = append(opts, core.WithCPUs(s.CPUs))
		cfg.cpus = s.CPUs
	}
	if s.MemBytes > 0 {
		opts = append(opts, core.WithMemBytes(s.MemBytes))
	}
	if s.Forwarding {
		opts = append(opts, core.WithForwarding())
	}
	if s.OutOfLineSharedInfo {
		opts = append(opts, core.WithOutOfLineSharedInfo())
	}
	if s.SkipMetrics {
		opts = append(opts, core.WithoutMetrics())
	}
	return opts, cfg
}

func kernelVersion(s campaign.Scenario) attacks.KernelVersion {
	if s.Kernel == string(attacks.Kernel415) {
		return attacks.Kernel415
	}
	return attacks.Kernel50
}

func driverModel(s campaign.Scenario) netstack.DriverModel {
	for _, m := range []netstack.DriverModel{netstack.DriverCorrect, netstack.DriverMlx5, netstack.DriverMlx5LRO} {
		if s.Driver == m.Name {
			return m
		}
	}
	return netstack.DriverI40E
}

// jitter resolves the JitterPages convention (0: default, <0: none).
func jitter(s campaign.Scenario) int {
	switch {
	case s.JitterPages < 0:
		return 0
	case s.JitterPages == 0:
		return attacks.BootJitterPages
	}
	return s.JitterPages
}

// ladderLimit bounds the construction ladder to this many distinct boots.
const ladderLimit = 8

// constructionLadder rebuilds the first distinct boots of the replay piece
// by piece: "mem.new" (mem.New), "kexec.new_kernel" (kexec.NewKernel, which
// generates the kernel text) and "kexec.gadget_scan"
// (kexec.ExtractBuildOffsets, four FindGadget scans).
func constructionLadder(tr *tracer, boots []bootConfig) error {
	seen := map[bootConfig]bool{}
	n := 0
	for _, b := range boots {
		if seen[b] || n == ladderLimit {
			continue
		}
		seen[b] = true
		n++
		rp := &replayer{tr: tr, group: int64(n)}
		l := layout.New(layout.Config{KASLR: b.kaslr, Seed: b.seed, PhysBytes: b.physBytes})
		var m *mem.Memory
		if err := rp.timed("mem.new", 0, true, func() (err error) {
			m, err = mem.New(mem.Config{Layout: l, CPUs: b.cpus})
			return err
		}); err != nil {
			return err
		}
		var k *kexec.Kernel
		rp.timed("kexec.new_kernel", 0, false, func() error {
			k = kexec.NewKernel(m, b.seed)
			return nil
		})
		if err := rp.timed("kexec.gadget_scan", 0, false, func() error {
			_, err := kexec.ExtractBuildOffsets(k.Text(), l.Symbols())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
