package experiments

import (
	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
	"dmafault/internal/otheros"
	"dmafault/internal/sim"
)

// Sec24 reproduces the §2.4 KASLR compromise: scanning leaked words from
// device-readable pages recovers all three randomized bases.
func Sec24(cfg Config) (*Outcome, error) {
	o := newOutcome("S2.4", "KASLR subversion from leaked pointers (§2.4)")
	sys, nic, err := bootSystem(cfg, iommu.Deferred, false)
	if err != nil {
		return nil, err
	}
	atk, err := attackerFor(sys)
	if err != nil {
		return nil, err
	}
	cb, err := nic.MapControlBuffer()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 6; i++ {
		if _, err := sys.Net.AllocSocket(0, "sock_alloc_inode+0x4f"); err != nil {
			return nil, err
		}
	}
	used := atk.ScanReadable([]iommu.IOVA{cb.IOVA})
	o.printf("scanned %d page(s), %d words; %d pointers consumed\n", atk.PagesScanned, atk.WordsScanned, used)

	tb, errT := atk.Infer.TextBase()
	pb, errP := atk.Infer.PageOffsetBase()
	o.printf("text base:        recovered %#x, truth %#x (via init_net low-21 match)\n", uint64(tb), uint64(sys.Layout.TextBase))
	o.printf("page_offset_base: recovered %#x, truth %#x (via 1 GiB alignment of leaked direct-map pointer)\n", uint64(pb), uint64(sys.Layout.PageOffsetBase))

	// vmemmap comes from a struct page leak (e.g. a TX frags entry).
	sp := sys.Layout.PFNToStructPage(1234)
	atk.Infer.ObserveWords([]uint64{uint64(sp)})
	vb, errV := atk.Infer.VmemmapBase()
	o.printf("vmemmap_base:     recovered %#x, truth %#x (via struct page pointer)\n", uint64(vb), uint64(sys.Layout.VmemmapBase))

	o.OK = errT == nil && errP == nil && errV == nil &&
		tb == sys.Layout.TextBase && pb == sys.Layout.PageOffsetBase && vb == sys.Layout.VmemmapBase
	o.metric("text_base_recovered", "%v", errT == nil && tb == sys.Layout.TextBase)
	o.metric("page_offset_recovered", "%v", errP == nil && pb == sys.Layout.PageOffsetBase)
	o.metric("vmemmap_recovered", "%v", errV == nil && vb == sys.Layout.VmemmapBase)
	return o, nil
}

// Sec521 quantifies the deferred-invalidation design (§5.2.1): per-unmap
// cost under strict vs deferred, and the window it buys the attacker.
func Sec521(cfg Config) (*Outcome, error) {
	o := newOutcome("S5.2.1", "IOTLB invalidation cost: strict vs deferred (§5.2.1)")
	const ops = 2048
	run := func(mode iommu.Mode) (perOp sim.Nanos, flushes uint64, err error) {
		sys, err := core.New(core.WithSeed(cfg.Seed), core.WithIOMMUMode(mode))
		if err != nil {
			return 0, 0, err
		}
		if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
			return 0, 0, err
		}
		buf, err := sys.Mem.Slab.Kmalloc(0, 2048, "io")
		if err != nil {
			return 0, 0, err
		}
		start := sys.Clock.Now()
		for i := 0; i < ops; i++ {
			va, err := sys.Mapper.MapSingle(nicDev, buf, 2048, dma.FromDevice)
			if err != nil {
				return 0, 0, err
			}
			if err := sys.Mapper.UnmapSingle(nicDev, va, 2048, dma.FromDevice); err != nil {
				return 0, 0, err
			}
		}
		elapsed := sys.Clock.Now() - start
		return elapsed / ops, sys.IOMMU.Stats().GlobalFlushes, nil
	}
	strictCost, _, err := run(iommu.Strict)
	if err != nil {
		return nil, err
	}
	deferredCost, flushes, err := run(iommu.Deferred)
	if err != nil {
		return nil, err
	}
	o.printf("per map/unmap invalidation overhead (%d ops):\n", ops)
	o.printf("  strict:   %4d ns/op (every unmap pays the ~2000-cycle invalidation)\n", strictCost)
	o.printf("  deferred: %4d ns/op (%d batched global flushes)\n", deferredCost, flushes)
	o.printf("  IOTLB invalidation ≈ 2000 cycles vs TLB invalidation ≈ 100 cycles (§5.2.1)\n")
	factor := float64(strictCost) / float64(max64(1, uint64(deferredCost)))
	o.printf("  strict/deferred cost ratio: %.0fx — why Linux defaults to deferred\n", factor)
	o.metric("strict_ns_per_op", "%d", strictCost)
	o.metric("deferred_ns_per_op", "%d", deferredCost)
	o.metric("cost_ratio", "%.0fx", factor)
	o.metric("deferred_timeout_ms", "%d", iommu.DeferredTimeout/sim.Millisecond)
	o.OK = strictCost > deferredCost && factor >= 10
	return o, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Sec53 runs the boot-determinism study and a RingFlood campaign (§5.3).
func Sec53(cfg Config) (*Outcome, error) {
	o := newOutcome("S5.3", "Boot determinism and RingFlood success (§5.3)")
	trials := cfg.BootTrials
	if trials <= 0 {
		trials = 16
	}
	st50, err := attacks.RunBootStudy(attacks.Kernel50, trials, cfg.Seed)
	if err != nil {
		return nil, err
	}
	st415, err := attacks.RunBootStudy(attacks.Kernel415, trials, cfg.Seed+10_000)
	if err != nil {
		return nil, err
	}
	o.printf("%d simulated reboots per kernel (paper: 256 physical reboots):\n", trials)
	o.printf("  kernel 5.0  (mlx5, LRO off, 2 KiB entries):  footprint %5d pages, modal PFN repeat %.0f%%, median %.0f%%\n",
		st50.FootprintPages, st50.ModalRate*100, st50.MedianRate*100)
	o.printf("  kernel 4.15 (mlx5, HW LRO, 64 KiB entries):  footprint %5d pages, modal PFN repeat %.0f%%, median %.0f%%\n",
		st415.FootprintPages, st415.ModalRate*100, st415.MedianRate*100)
	o.printf("  paper: \"many PFNs repeat in more than 50%% of reboots on kernel 5.0 and more than 95%% on kernel 4.15\"\n")

	// The "larger machines" axis (§5.3: footprint scales with the number of
	// RX rings): under heavy drift, one queue's footprint repeats poorly
	// while eight queues blanket the drift range.
	qTrials := trials / 8
	if qTrials < 8 {
		qTrials = 8
	}
	if qTrials > 16 {
		qTrials = 16
	}
	qRate := func(queues int) (float64, error) {
		freq := map[layout.PFN]int{}
		var ref map[layout.PFN]uint64
		for i := 0; i < qTrials; i++ {
			_, _, rec, err := attacks.BootOnceQueues(attacks.Kernel50, cfg.Seed+30_000+int64(i), 0, 2048, queues)
			if err != nil {
				return 0, err
			}
			if ref == nil {
				ref = rec.BufStart
			}
			for p := range rec.BufStart {
				freq[p]++
			}
		}
		best := 0
		for p := range ref {
			if freq[p] > best {
				best = freq[p]
			}
		}
		return float64(best) / float64(qTrials), nil
	}
	q1, err := qRate(1)
	if err != nil {
		return nil, err
	}
	q8, err := qRate(8)
	if err != nil {
		return nil, err
	}
	o.printf("larger machines (heavy drift, %d reboots): 1 RX ring repeat %.0f%%, 8 RX rings %.0f%%\n", qTrials, q1*100, q8*100)

	attemptsN := cfg.CampaignAttempts
	if attemptsN <= 0 {
		attemptsN = 4
	}
	hits, _, err := attacks.RingFloodCampaign(attacks.Kernel415, st415, attemptsN, cfg.Seed+77_000)
	if err != nil {
		return nil, err
	}
	o.printf("RingFlood campaign on kernel 4.15: %d/%d fresh boots compromised\n", hits, attemptsN)
	o.metric("repeat_rate_5.0", "%.2f (paper >0.50)", st50.ModalRate)
	o.metric("repeat_rate_4.15", "%.2f (paper >0.95)", st415.ModalRate)
	o.metric("footprint_ratio", "%.0fx", float64(st415.FootprintPages)/float64(max64(1, uint64(st50.FootprintPages))))
	o.metric("queues_1_vs_8", "%.2f vs %.2f (more rings → higher repeat)", q1, q8)
	o.metric("ringflood_hits", "%d/%d", hits, attemptsN)
	o.OK = st50.ModalRate > 0.50 && st415.ModalRate > 0.95 && st415.ModalRate >= st50.ModalRate && hits > 0 && q8 >= q1
	return o, nil
}

// Sec6 is the end-to-end demonstration (§6): gadget discovery à la ROPgadget
// plus a complete RingFlood run with the FireWire co-attacker sharing the
// NIC's IOVA page table.
func Sec6(cfg Config) (*Outcome, error) {
	o := newOutcome("S6", "End-to-end attack demonstration (§6)")
	study, err := attacks.RunBootStudy(attacks.Kernel415, maxInt(cfg.BootTrials/4, 8), cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	sys, nic, _, err := attacks.BootOnce(attacks.Kernel415, cfg.Seed+5, 0)
	if err != nil {
		return nil, err
	}
	// The FireWire attacker shares the NIC's domain (the paper's testbed).
	const firewire iommu.DeviceID = 9
	if err := sys.AttachToDomainOf(firewire, nic.Dev); err != nil {
		return nil, err
	}
	g, ok := sys.Kernel.Text().FindGadget(kexec.GadgetPivot)
	if !ok {
		o.OK = false
		o.printf("no JOP pivot gadget found\n")
		return o, nil
	}
	o.printf("ROPgadget-style scan found the JOP gadget \"%%rsp = %%rdi + %#x\" at text+%#x\n", g.Imm, g.Offset)
	r := attacks.RunRingFlood(sys, nic, study)
	o.printf("%s", r.String())
	o.metric("pivot_gadget_offset", "%#x", g.Offset)
	o.metric("escalations", "%d", r.Escalations)
	o.OK = r.Success
	return o, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Sec7 evaluates mitigations (§7/§8/§9): what blocks single-step attacks,
// what blocks compound attacks, and what survives.
func Sec7(cfg Config) (*Outcome, error) {
	o := newOutcome("S7", "Mitigations: what holds and what falls (§7–§9)")

	// 1. Strict mode alone does NOT stop the compound attacks (Fig. 7 row
	//    i40e/strict): Poisoned TX still lands.
	sysStrict, nicStrict, err := bootSystem(cfg, iommu.Strict, false)
	if err != nil {
		return nil, err
	}
	rStrict := attacks.RunPoisonedTX(sysStrict, nicStrict)
	o.printf("strict IOTLB invalidation:      Poisoned TX success=%v (driver-order window survives)\n", rStrict.Success)

	// 2. Intel CET (shadow stack) kills the ROP stage.
	sysCET, nicCET, err := bootSystem(cfg, iommu.Deferred, false)
	if err != nil {
		return nil, err
	}
	sysCET.Kernel.CETEnabled = true
	rCET := attacks.RunPoisonedTX(sysCET, nicCET)
	o.printf("Intel CET shadow stack:         Poisoned TX success=%v (returns without calls fault)\n", rCET.Success)

	// 3. Bounce buffers (Markuze et al. [47]): device writes outside the
	//    requested bytes never reach kernel memory.
	sysB, _, err := bootSystem(cfg, iommu.Deferred, false)
	if err != nil {
		return nil, err
	}
	bm := dma.NewBounceMapper(sysB.Mem, sysB.Mapper)
	buf, err := sysB.Mem.Pages.AllocPages(0, 0)
	if err != nil {
		return nil, err
	}
	kva := sysB.Layout.PFNToKVA(buf)
	siOff := netstack.TruesizeFor(2048) - netstack.SharedInfoSize
	if err := sysB.Mem.WriteU64(kva+layout.Addr(siOff)+netstack.SharedInfoDestructorArgOff, 0); err != nil {
		return nil, err
	}
	va, err := bm.MapSingle(nicDev, kva, 1500, dma.FromDevice)
	if err != nil {
		return nil, err
	}
	// The device corrupts "shared info" on the shadow page...
	if err := sysB.Bus.WriteU64(nicDev, (va&^iommu.IOVA(layout.PageMask))+iommu.IOVA(siOff)+netstack.SharedInfoDestructorArgOff, 0xbad); err != nil {
		return nil, err
	}
	if err := bm.UnmapSingle(nicDev, va, 1500, dma.FromDevice); err != nil {
		return nil, err
	}
	darg, err := sysB.Mem.ReadU64(kva + layout.Addr(siOff) + netstack.SharedInfoDestructorArgOff)
	if err != nil {
		return nil, err
	}
	bounceBlocks := darg == 0
	o.printf("bounce buffers [47]:            shared-info corruption reaches kernel=%v (copy-back covers n bytes only)\n", !bounceBlocks)

	// 4. The §7 OS survey, run for real against the otheros models:
	//    Windows NET_BUFFER and FreeBSD mbuf fall to single-step attacks;
	//    macOS blinding stops single-step but falls to one XOR once the
	//    attacker holds a known plaintext/ciphertext pair.
	osRow := func(os otheros.OS, blindWithCookie bool) (bool, error) {
		sys, err := core.New(core.WithSeed(cfg.Seed+50), core.WithIOMMUMode(iommu.Strict))
		if err != nil {
			return false, err
		}
		if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
			return false, err
		}
		sys.Kernel.RegisterSymbol("m_freem_ext", func(c *kexec.CPU) error { return nil })
		benign, err := sys.Kernel.FuncAddr("m_freem_ext")
		if err != nil {
			return false, err
		}
		atk, err := attackerFor(sys)
		if err != nil {
			return false, err
		}
		initNet, _ := sys.Layout.SymbolKVA("init_net")
		atk.Infer.ObserveWords([]uint64{uint64(initNet)})
		secret := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0xb10c
		nb, err := otheros.Alloc(sys, nicDev, os, benign, secret)
		if err != nil {
			return false, err
		}
		blind := uint64(0)
		if blindWithCookie {
			stored, err := atk.Bus.ReadU64(atk.Dev, nb.IOVA+otheros.ExtFreeOff)
			if err != nil {
				return false, err
			}
			plain, err := atk.Infer.SymbolKVA("m_freem_ext")
			if err != nil {
				return false, err
			}
			blind = stored ^ uint64(plain) // the §7 single-XOR cookie recovery
		}
		pivot, err := atk.PivotAddr()
		if err != nil {
			return false, err
		}
		chain, err := atk.ChainAddresses()
		if err != nil {
			return false, err
		}
		if err := atk.Bus.Write(atk.Dev, nb.IOVA+kexec.PivotDisplacement, kexec.ChainBytes(kexec.EscalationChain(chain))); err != nil {
			return false, err
		}
		if err := atk.Bus.WriteU64(atk.Dev, nb.IOVA+otheros.ExtFreeOff, uint64(pivot)^blind); err != nil {
			return false, err
		}
		_ = nb.Free(nicDev) // dispatch may legitimately fault (blinding)
		return sys.Kernel.Escalations > 0, nil
	}
	winOK, err := osRow(otheros.Windows, false)
	if err != nil {
		return nil, err
	}
	bsdOK, err := osRow(otheros.FreeBSD, false)
	if err != nil {
		return nil, err
	}
	macNaive, err := osRow(otheros.MacOS, false)
	if err != nil {
		return nil, err
	}
	macCompound, err := osRow(otheros.MacOS, true)
	if err != nil {
		return nil, err
	}
	o.printf("Windows NET_BUFFER (§7):        single-step success=%v (metadata+data in one allocation)\n", winOK)
	o.printf("FreeBSD mbuf (§7):              single-step success=%v (raw ext_free exposed)\n", bsdOK)
	o.printf("macOS blinded ext_free (§7):    single-step success=%v, compound (XOR'd cookie) success=%v\n", macNaive, macCompound)

	o.OK = rStrict.Success && !rCET.Success && bounceBlocks && winOK && bsdOK && !macNaive && macCompound
	o.metric("strict_mode_stops_compound", "%v (paper: no)", !rStrict.Success)
	o.metric("cet_stops_rop", "%v (paper §8: yes)", !rCET.Success)
	o.metric("bounce_stops_corruption", "%v (paper [47]: yes)", bounceBlocks)
	o.metric("windows_single_step", "%v (paper §7: vulnerable)", winOK)
	o.metric("freebsd_single_step", "%v (paper §7: vulnerable)", bsdOK)
	o.metric("macos_blinding_single_step", "%v (paper §7: blocked)", macNaive)
	o.metric("macos_blinding_compound", "%v (paper §7: falls)", macCompound)
	return o, nil
}
