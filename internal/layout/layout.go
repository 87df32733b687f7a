// Package layout models the x86-64 Linux kernel virtual memory layout and
// KASLR (kernel address space layout randomization), as described in §2.4 and
// Table 1 of the paper.
//
// The package provides:
//
//   - the fixed region table of Table 1 (direct map, vmalloc, vmemmap, KASAN
//     shadow, kernel text, modules);
//   - KASLR randomization of the region bases with the architectural
//     alignments the paper relies on (2 MiB for the kernel text, 1 GiB for
//     the direct map and the virtual memory map);
//   - translation between kernel virtual addresses (KVA), page frame numbers
//     (PFN), and struct page addresses in the virtual memory map;
//   - a kernel symbol table (including an init_net-style globally allocated
//     network namespace object) used to model pointer leaks;
//   - pointer classification, the first step of the KASLR-subversion
//     procedure of §2.4.
//
// All addresses are simulated: they are plain uint64 values interpreted
// against this layout, never dereferenced as host pointers.
package layout

import (
	"fmt"
	"math/rand"
)

// Addr is a simulated 64-bit kernel virtual address.
type Addr uint64

// PFN is a page frame number of a simulated physical page.
type PFN uint64

const (
	// PageSize is the base translation granule of both the MMU and the
	// IOMMU. The sub-page vulnerability exists precisely because protection
	// cannot be finer than this.
	PageSize  = 4096
	PageShift = 12
	PageMask  = PageSize - 1

	// StructPageSize is sizeof(struct page) on x86-64 Linux.
	StructPageSize = 64
)

// Architectural region boundaries from Table 1 of the paper
// (Documentation/x86/x86_64/mm.rst for the 4-level page table layout).
const (
	DirectMapStart Addr = 0xffff888000000000
	DirectMapEnd   Addr = 0xffffc87fffffffff // 64 TiB
	VmallocStart   Addr = 0xffffc90000000000
	VmallocEnd     Addr = 0xffffe8ffffffffff // 32 TiB
	VmemmapStart   Addr = 0xffffea0000000000
	VmemmapEnd     Addr = 0xffffeaffffffffff // 1 TiB
	KasanStart     Addr = 0xffffec0000000000
	KasanEnd       Addr = 0xfffffbffffffffff // 16 TiB
	TextStart      Addr = 0xffffffff80000000
	TextEnd        Addr = 0xffffffffffffffff // 512 MiB window
	ModuleStart    Addr = 0xffffffffa0000000
	ModuleEnd      Addr = 0xffffffffffffffff // 1520 MiB window
)

// Alignment constraints of the KASLR randomization procedure (§2.4).
const (
	// TextAlign is the 2 MiB alignment of the randomized kernel text base:
	// the lowest 21 bits of text addresses are never modified by KASLR.
	TextAlign = 1 << 21
	// DirectMapAlign is the 1 GiB alignment (PUD granularity) of the
	// randomized direct-map and vmemmap bases: the lowest 30 bits are never
	// modified by KASLR.
	DirectMapAlign = 1 << 30

	// TextSpan is the size of the kernel text mapping window (512 MiB).
	TextSpan = 512 << 20
)

// Region identifies which Table 1 region a kernel virtual address falls in.
type Region int

const (
	RegionNone Region = iota
	RegionDirectMap
	RegionVmalloc
	RegionVmemmap
	RegionKasan
	RegionText
	RegionModule
)

// String returns the region description used in Table 1.
func (r Region) String() string {
	switch r {
	case RegionDirectMap:
		return "direct map of phys memory (page_offset_base)"
	case RegionVmalloc:
		return "vmalloc/ioremap space (vmalloc_base)"
	case RegionVmemmap:
		return "virtual memory map (vmemmap_base)"
	case RegionKasan:
		return "KASAN shadow memory"
	case RegionText:
		return "kernel text mapping (physical address 0)"
	case RegionModule:
		return "module mapping space"
	default:
		return "none"
	}
}

// RegionRow is one row of Table 1.
type RegionRow struct {
	Start Addr
	End   Addr
	Size  string
	Desc  string
}

// Table1 returns the architectural region table exactly as the paper's
// Table 1 lists it. The table is independent of KASLR; KASLR only picks the
// bases *within* these ranges.
func Table1() []RegionRow {
	return []RegionRow{
		{DirectMapStart, DirectMapEnd, "64 TB", RegionDirectMap.String()},
		{VmallocStart, VmallocEnd, "32 TB", RegionVmalloc.String()},
		{VmemmapStart, VmemmapEnd, "1 TB", RegionVmemmap.String()},
		{KasanStart, KasanEnd, "16 TB", RegionKasan.String()},
		{TextStart, TextEnd, "512 MB", RegionText.String()},
		{ModuleStart, ModuleEnd, "1520 MB", RegionModule.String()},
	}
}

// Classify reports which layout region the address belongs to. Classification
// only depends on the architectural ranges, not on the KASLR bases, which is
// why a malicious device can perform it without any prior knowledge (§2.4:
// "text addresses always appear in the kernel text mapping range and are
// therefore easy to detect").
func Classify(a Addr) Region {
	switch {
	case a >= ModuleStart && a >= TextStart && a < TextStart+TextSpan:
		// Text and module windows overlap numerically; prefer text within
		// its 512 MiB window.
		return RegionText
	case a >= TextStart && a < TextStart+TextSpan:
		return RegionText
	case a >= ModuleStart:
		return RegionModule
	case a >= DirectMapStart && a <= DirectMapEnd:
		return RegionDirectMap
	case a >= VmallocStart && a <= VmallocEnd:
		return RegionVmalloc
	case a >= VmemmapStart && a <= VmemmapEnd:
		return RegionVmemmap
	case a >= KasanStart && a <= KasanEnd:
		return RegionKasan
	default:
		return RegionNone
	}
}

// Config controls layout construction.
type Config struct {
	// KASLR enables base randomization. When false, the bases are the
	// architectural region starts (like booting with nokaslr).
	KASLR bool
	// Seed drives the randomization deterministically.
	Seed int64
	// PhysBytes is the amount of simulated physical memory; it bounds the
	// portion of the direct map and vmemmap that is actually backed.
	PhysBytes uint64
}

// Layout is one boot's realized virtual memory layout: the randomized (or
// default) bases plus the translation functions between KVA, PFN and struct
// page addresses.
type Layout struct {
	PageOffsetBase Addr // base of the direct map (page_offset_base)
	VmallocBase    Addr // base of vmalloc space (vmalloc_base)
	VmemmapBase    Addr // base of the virtual memory map (vmemmap_base)
	TextBase       Addr // base of the kernel text mapping
	PhysBytes      uint64
	KASLR          bool

	symbols *SymbolTable
}

// New builds a layout for one simulated boot. With KASLR enabled the bases
// are randomized within their Table 1 ranges honoring the 2 MiB (text) and
// 1 GiB (direct map, vmemmap) alignments; the low 21/30 bits of the bases are
// therefore always zero, which is the weakness §2.4 exploits.
func New(cfg Config) *Layout {
	l := &Layout{
		PageOffsetBase: DirectMapStart,
		VmallocBase:    VmallocStart,
		VmemmapBase:    VmemmapStart,
		TextBase:       TextStart,
		PhysBytes:      cfg.PhysBytes,
		KASLR:          cfg.KASLR,
	}
	if l.PhysBytes == 0 {
		l.PhysBytes = 256 << 20
	}
	if cfg.KASLR {
		rng := rand.New(rand.NewSource(cfg.Seed))
		// Text: 512 MiB window, 2 MiB step. Keep headroom for the text
		// image itself (64 MiB).
		steps := int64((TextSpan - (64 << 20)) / TextAlign)
		l.TextBase = TextStart + Addr(rng.Int63n(steps))*TextAlign
		// Direct map: randomize within the first 8 TiB of the 64 TiB
		// region at 1 GiB granularity, leaving room for physical memory.
		dmSteps := int64((8 << 40) / DirectMapAlign)
		l.PageOffsetBase = DirectMapStart + Addr(rng.Int63n(dmSteps))*DirectMapAlign
		// Vmemmap: randomize within the 1 TiB region at 1 GiB granularity.
		vmSteps := int64((1<<40)/DirectMapAlign) - 8
		l.VmemmapBase = VmemmapStart + Addr(rng.Int63n(vmSteps))*DirectMapAlign
		// Vmalloc: same 1 GiB granularity inside its region.
		vaSteps := int64((4 << 40) / DirectMapAlign)
		l.VmallocBase = VmallocStart + Addr(rng.Int63n(vaSteps))*DirectMapAlign
	}
	l.symbols = defaultSymbols()
	return l
}

// MaxPFN returns one past the largest backed page frame number.
func (l *Layout) MaxPFN() PFN { return PFN(l.PhysBytes / PageSize) }

// PhysToKVA translates a physical address to its direct-map kernel virtual
// address.
func (l *Layout) PhysToKVA(pa uint64) Addr { return l.PageOffsetBase + Addr(pa) }

// KVAToPhys translates a direct-map KVA back to a physical address. It
// returns an error for addresses outside the backed direct map.
func (l *Layout) KVAToPhys(a Addr) (uint64, error) {
	if a < l.PageOffsetBase || uint64(a-l.PageOffsetBase) >= l.PhysBytes {
		return 0, fmt.Errorf("layout: KVA %#x outside backed direct map [%#x, %#x)", uint64(a), uint64(l.PageOffsetBase), uint64(l.PageOffsetBase)+l.PhysBytes)
	}
	return uint64(a - l.PageOffsetBase), nil
}

// PFNToKVA returns the direct-map address of the page frame.
func (l *Layout) PFNToKVA(p PFN) Addr { return l.PhysToKVA(uint64(p) * PageSize) }

// KVAToPFN returns the page frame number backing a direct-map KVA.
func (l *Layout) KVAToPFN(a Addr) (PFN, error) {
	pa, err := l.KVAToPhys(a)
	if err != nil {
		return 0, err
	}
	return PFN(pa / PageSize), nil
}

// PFNToStructPage returns the vmemmap address of the struct page describing
// the frame: vmemmap_base + pfn * sizeof(struct page).
func (l *Layout) PFNToStructPage(p PFN) Addr {
	return l.VmemmapBase + Addr(uint64(p)*StructPageSize)
}

// StructPageToPFN inverts PFNToStructPage. It returns an error for addresses
// that are not struct page addresses of backed frames.
func (l *Layout) StructPageToPFN(a Addr) (PFN, error) {
	if a < l.VmemmapBase {
		return 0, fmt.Errorf("layout: %#x below vmemmap base", uint64(a))
	}
	off := uint64(a - l.VmemmapBase)
	if off%StructPageSize != 0 {
		return 0, fmt.Errorf("layout: %#x not struct-page aligned", uint64(a))
	}
	p := PFN(off / StructPageSize)
	if p >= l.MaxPFN() {
		return 0, fmt.Errorf("layout: struct page %#x beyond backed memory", uint64(a))
	}
	return p, nil
}

// StructPageToKVA translates a struct page address to the direct-map address
// of the page it describes, the translation a malicious NIC performs in step
// 3 of the Poisoned TX attack (§5.4).
func (l *Layout) StructPageToKVA(a Addr) (Addr, error) {
	p, err := l.StructPageToPFN(a)
	if err != nil {
		return 0, err
	}
	return l.PFNToKVA(p), nil
}

// Symbols returns the kernel symbol table of this boot.
func (l *Layout) Symbols() *SymbolTable { return l.symbols }

// SymbolKVA returns the runtime virtual address of a kernel symbol under this
// boot's text base.
func (l *Layout) SymbolKVA(name string) (Addr, error) {
	off, err := l.symbols.Offset(name)
	if err != nil {
		return 0, err
	}
	return l.TextBase + Addr(off), nil
}

// PageOffsetOf returns the sub-page offset of an address. The low 12 bits of
// an IOVA and of the KVA it maps are identical (§5.2.2 footnote), so devices
// learn them for free.
func PageOffsetOf(a Addr) uint64 { return uint64(a) & PageMask }

// PageAlignDown rounds an address down to its page base.
func PageAlignDown(a Addr) Addr { return a &^ Addr(PageMask) }

// PageAlignUp rounds a length up to whole pages.
func PageAlignUp(n uint64) uint64 { return (n + PageMask) &^ uint64(PageMask) }
