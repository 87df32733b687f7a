// Package mem simulates the physical memory of the victim machine together
// with the three kernel allocators whose placement policies create sub-page
// DMA vulnerabilities (§3.2 of the paper):
//
//   - a buddy page allocator with per-CPU hot-page caches (Linux reuses
//     recently freed pages immediately, §5.2.1 attack option 2);
//   - a SLUB-style kmalloc whose slabs pack same-size objects onto shared
//     pages and keep the freelist pointer *inside* free objects — the "OS
//     metadata on the I/O page" of vulnerability type (b) and the random
//     co-location of type (d);
//   - the page_frag allocator (§5.2.2, Fig. 5), which slices per-CPU 32 KiB
//     compound regions into consecutive buffers and is the root cause of
//     type (c) vulnerabilities (multiple IOVAs mapping the same page).
//
// Physical memory is kept in fixed 2 MiB sections allocated on first write;
// an absent section reads as zero, so a 128 MiB machine whose attacks touch
// a few hundred pages costs a few sections. Kernel virtual addresses are
// interpreted through a layout.Layout. CPU-side accesses flow through
// Memory.Read/Write so that a sanitizer (D-KASAN) can observe them;
// device-side DMA accesses use the physical Read/WritePhys path via the
// IOMMU bus.
package mem

import (
	"encoding/binary"
	"fmt"

	"dmafault/internal/layout"
)

// Tracer observes allocator and CPU-access events. The D-KASAN sanitizer
// implements it; the zero value of Memory uses a nil tracer (no tracing).
type Tracer interface {
	// OnKmalloc fires after a kmalloc object is handed out.
	OnKmalloc(addr layout.Addr, size uint64, site string)
	// OnKfree fires before a kmalloc object is returned to its slab.
	OnKfree(addr layout.Addr, size uint64)
	// OnPageAlloc fires after 2^order pages starting at pfn are handed out.
	OnPageAlloc(pfn layout.PFN, order uint)
	// OnPageFree fires before 2^order pages starting at pfn are freed.
	OnPageFree(pfn layout.PFN, order uint)
	// OnCPUAccess fires on every CPU load/store through Memory.Read/Write.
	OnCPUAccess(addr layout.Addr, size uint64, write bool)
}

// Config sizes the simulated machine's memory subsystem.
type Config struct {
	Layout *layout.Layout
	// CPUs is the number of simulated cores; page_frag caches and hot-page
	// caches are per-CPU.
	CPUs int
	// Tracer, if non-nil, observes allocator and access events.
	Tracer Tracer
	// Inject, if non-nil, is the fault-injection hook consulted on every
	// page-block allocation (the buddy allocator feeds the slab and
	// page_frag paths too, so one hook site models allocator pressure
	// everywhere). internal/faultinject implements it.
	Inject AllocInjector
}

// AllocInjector is the allocator-pressure fault-injection hook: true makes
// the allocation fail with an error wrapping faultinject.ErrTransient.
type AllocInjector interface {
	InjectAllocFailure() bool
}

// sectionShift sizes the lazily allocated sections of physical memory
// (2 MiB). Per-page sections cost one allocation per touched page and
// measurably slow allocator-heavy soaks; 2 MiB keeps a typical attack at a
// handful of sections.
const (
	sectionShift = 21
	sectionSize  = 1 << sectionShift
)

// Memory is the simulated physical memory plus its allocators.
type Memory struct {
	layout *layout.Layout
	size   uint64
	// sections holds physical memory in sectionSize pieces; a nil section
	// has never been written and reads as zero.
	sections [][]byte
	pages    []PageInfo
	tracer   Tracer
	inject   AllocInjector

	Pages *PageAllocator
	Slab  *SlabAllocator
	Frag  *FragAllocator
}

// New builds a machine memory of cfg.Layout.PhysBytes bytes.
func New(cfg Config) (*Memory, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("mem: nil layout")
	}
	if cfg.Layout.PhysBytes%layout.PageSize != 0 {
		return nil, fmt.Errorf("mem: PhysBytes %d not page aligned", cfg.Layout.PhysBytes)
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	m := &Memory{
		layout:   cfg.Layout,
		size:     cfg.Layout.PhysBytes,
		sections: make([][]byte, (cfg.Layout.PhysBytes+sectionSize-1)/sectionSize),
		pages:    make([]PageInfo, cfg.Layout.PhysBytes/layout.PageSize),
		tracer:   cfg.Tracer,
		inject:   cfg.Inject,
	}
	var err error
	m.Pages, err = newPageAllocator(m, cfg.CPUs)
	if err != nil {
		return nil, err
	}
	m.Slab = newSlabAllocator(m)
	m.Frag = newFragAllocator(m, cfg.CPUs)
	return m, nil
}

// Layout returns the virtual memory layout this memory is interpreted under.
func (m *Memory) Layout() *layout.Layout { return m.layout }

// NumPages returns the number of simulated physical page frames.
func (m *Memory) NumPages() int { return len(m.pages) }

// Page returns the metadata of a page frame (the simulated struct page).
func (m *Memory) Page(p layout.PFN) (*PageInfo, error) {
	if uint64(p) >= uint64(len(m.pages)) {
		return nil, fmt.Errorf("mem: PFN %d out of range (max %d)", p, len(m.pages)-1)
	}
	return &m.pages[p], nil
}

// mustPage is Page for internal callers that already validated the PFN.
func (m *Memory) mustPage(p layout.PFN) *PageInfo { return &m.pages[p] }

// checkPhys validates a physical range.
func (m *Memory) checkPhys(pa, n uint64) error {
	if pa >= m.size || n > m.size-pa {
		return fmt.Errorf("mem: physical range [%#x,+%d) out of bounds", pa, n)
	}
	return nil
}

// section returns section i, allocating it on first use.
func (m *Memory) section(i uint64) []byte {
	s := m.sections[i]
	if s == nil {
		s = make([]byte, min(sectionSize, m.size-i<<sectionShift))
		m.sections[i] = s
	}
	return s
}

// load copies the validated physical range starting at pa into buf.
func (m *Memory) load(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa & (sectionSize - 1)
		var n int
		if s := m.sections[pa>>sectionShift]; s != nil {
			n = copy(buf, s[off:])
		} else {
			n = int(min(uint64(len(buf)), sectionSize-off))
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += uint64(n)
	}
}

// store copies buf into the validated physical range starting at pa.
func (m *Memory) store(pa uint64, buf []byte) {
	for len(buf) > 0 {
		n := copy(m.section(pa >> sectionShift)[pa&(sectionSize-1):], buf)
		buf = buf[n:]
		pa += uint64(n)
	}
}

// fill sets the validated physical range [pa, pa+n) to v. Zeroing an absent
// section is a no-op: it already reads as zero.
func (m *Memory) fill(pa uint64, v byte, n uint64) {
	for n > 0 {
		i, off := pa>>sectionShift, pa&(sectionSize-1)
		c := min(n, sectionSize-off)
		if m.sections[i] != nil || v != 0 {
			b := m.section(i)[off : off+c]
			if v == 0 {
				clear(b)
			} else {
				for j := range b {
					b[j] = v
				}
			}
		}
		pa += c
		n -= c
	}
}

// ReadPhys copies simulated physical memory into buf. It is the device-side
// access primitive: no CPU tracer events fire.
func (m *Memory) ReadPhys(pa uint64, buf []byte) error {
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	m.load(pa, buf)
	return nil
}

// WritePhys copies buf into simulated physical memory (device-side).
func (m *Memory) WritePhys(pa uint64, buf []byte) error {
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	m.store(pa, buf)
	return nil
}

// Read performs a CPU load from a direct-map KVA.
func (m *Memory) Read(a layout.Addr, buf []byte) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, uint64(len(buf)), false)
	}
	m.load(pa, buf)
	return nil
}

// Write performs a CPU store to a direct-map KVA.
func (m *Memory) Write(a layout.Addr, buf []byte) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, uint64(len(buf)), true)
	}
	m.store(pa, buf)
	return nil
}

// ReadU64 loads a little-endian 64-bit word (CPU side).
func (m *Memory) ReadU64(a layout.Addr) (uint64, error) {
	var b [8]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian 64-bit word (CPU side).
func (m *Memory) WriteU64(a layout.Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(a, b[:])
}

// ReadU32 loads a little-endian 32-bit word (CPU side).
func (m *Memory) ReadU32(a layout.Addr) (uint32, error) {
	var b [4]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 stores a little-endian 32-bit word (CPU side).
func (m *Memory) WriteU32(a layout.Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.Write(a, b[:])
}

// ReadU16 loads a little-endian 16-bit word (CPU side).
func (m *Memory) ReadU16(a layout.Addr) (uint16, error) {
	var b [2]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 stores a little-endian 16-bit word (CPU side).
func (m *Memory) WriteU16(a layout.Addr, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return m.Write(a, b[:])
}

// Memset fills a KVA range with a byte value (CPU side).
func (m *Memory) Memset(a layout.Addr, v byte, n uint64) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, n); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, n, true)
	}
	m.fill(pa, v, n)
	return nil
}

// tracerOnKmalloc and friends centralize nil checks.
func (m *Memory) tracerOnKmalloc(a layout.Addr, size uint64, site string) {
	if m.tracer != nil {
		m.tracer.OnKmalloc(a, size, site)
	}
}
func (m *Memory) tracerOnKfree(a layout.Addr, size uint64) {
	if m.tracer != nil {
		m.tracer.OnKfree(a, size)
	}
}
func (m *Memory) tracerOnPageAlloc(p layout.PFN, order uint) {
	if m.tracer != nil {
		m.tracer.OnPageAlloc(p, order)
	}
}
func (m *Memory) tracerOnPageFree(p layout.PFN, order uint) {
	if m.tracer != nil {
		m.tracer.OnPageFree(p, order)
	}
}
