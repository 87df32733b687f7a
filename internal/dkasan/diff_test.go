package dkasan

import (
	"math/rand"
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// Differential test of the sanitizer's bookkeeping: seeded random programs
// of kmalloc/kfree, DMA map/unmap and CPU accesses run on one booted system
// observed by both the real Sanitizer and refSanitizer, a reference that
// keeps per-frame state in a map of lazily created records. Both must count
// the same events and render the same report.

// refSanitizer reports through an unattached Sanitizer, so deduplication and
// rendering are shared and only the per-frame state differs.
type refSanitizer struct {
	m     *mem.Memory
	pages map[layout.PFN]*pageState
	out   *Sanitizer
}

func newRefSanitizer() *refSanitizer {
	return &refSanitizer{pages: make(map[layout.PFN]*pageState), out: New()}
}

func (r *refSanitizer) attach(m *mem.Memory, mapper *dma.Mapper) {
	r.m = m
	mapper.AddHook(r)
}

func (r *refSanitizer) page(p layout.PFN) *pageState {
	st, ok := r.pages[p]
	if !ok {
		st = &pageState{}
		r.pages[p] = st
	}
	return st
}

// span returns the frames [first, last] covering n bytes at a.
func (r *refSanitizer) span(a layout.Addr, n uint64) (first, last layout.PFN, ok bool) {
	if r.m == nil {
		return 0, 0, false
	}
	first, err := r.m.Layout().KVAToPFN(a)
	if err != nil {
		return 0, 0, false
	}
	last, err = r.m.Layout().KVAToPFN(a + layout.Addr(n-1))
	if err != nil {
		last = first
	}
	return first, last, true
}

func (r *refSanitizer) OnKmalloc(a layout.Addr, size uint64, site string) {
	first, last, ok := r.span(a, size)
	if !r.out.Enabled || !ok {
		return
	}
	for p := first; p <= last; p++ {
		if st := r.page(p); st.mapCount > 0 {
			r.out.stats.AllocAfterMap++
			r.out.report(AllocAfterMap, size, st.read, st.write, site)
			return
		}
	}
}

func (r *refSanitizer) OnKfree(a layout.Addr, size uint64)   {}
func (r *refSanitizer) OnPageAlloc(p layout.PFN, order uint) {}
func (r *refSanitizer) OnPageFree(p layout.PFN, order uint)  {}

func (r *refSanitizer) OnCPUAccess(a layout.Addr, n uint64, write bool) {
	if !r.out.Enabled || r.m == nil {
		return
	}
	pfn, err := r.m.Layout().KVAToPFN(a)
	if err != nil {
		return
	}
	st, ok := r.pages[pfn]
	if !ok || st.mapCount == 0 {
		return
	}
	r.out.stats.AccessAfterMap++
	site := "cpu-read"
	if write {
		site = "cpu-write"
	}
	r.out.report(AccessAfterMap, n, st.read, st.write, site)
}

func (r *refSanitizer) OnMap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	first, last, ok := r.span(kva, n)
	if !ok {
		return
	}
	read, write := dir.Perm().Allows(false), dir.Perm().Allows(true)
	for p := first; p <= last; p++ {
		st := r.page(p)
		if r.out.Enabled && st.mapCount > 0 {
			r.out.stats.MultipleMap++
			r.out.report(MultipleMap, n, st.read || read, st.write || write, "dma-map")
		}
		if r.out.Enabled {
			for _, obj := range r.m.Slab.ObjectsOnPage(p) {
				if obj.Live && !(obj.Addr < kva+layout.Addr(n) && kva < obj.Addr+layout.Addr(obj.Size)) {
					r.out.stats.MapAfterAlloc++
					r.out.report(MapAfterAlloc, obj.Size, read, write, obj.Site)
				}
			}
		}
		st.mapCount++
		st.read = st.read || read
		st.write = st.write || write
	}
}

func (r *refSanitizer) OnUnmap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	first, last, ok := r.span(kva, n)
	if !ok {
		return
	}
	for p := first; p <= last; p++ {
		st := r.page(p)
		if st.mapCount > 0 {
			st.mapCount--
		}
		if st.mapCount == 0 {
			st.read, st.write = false, false
		}
	}
}

// teeTracer forwards every memory event to each tracer in turn.
type teeTracer []mem.Tracer

func (t teeTracer) OnKmalloc(a layout.Addr, size uint64, site string) {
	for _, x := range t {
		x.OnKmalloc(a, size, site)
	}
}

func (t teeTracer) OnKfree(a layout.Addr, size uint64) {
	for _, x := range t {
		x.OnKfree(a, size)
	}
}

func (t teeTracer) OnPageAlloc(p layout.PFN, order uint) {
	for _, x := range t {
		x.OnPageAlloc(p, order)
	}
}

func (t teeTracer) OnPageFree(p layout.PFN, order uint) {
	for _, x := range t {
		x.OnPageFree(p, order)
	}
}

func (t teeTracer) OnCPUAccess(a layout.Addr, n uint64, write bool) {
	for _, x := range t {
		x.OnCPUAccess(a, n, write)
	}
}

var diffSites = []string{"sock_alloc_inode", "load_elf_phdrs", "__alloc_skb", "nic_io_buf"}

// runDiffProgram runs ops seeded random operations and returns the events
// counted, so the caller can check the programs reach every class.
func runDiffProgram(t *testing.T, seed int64, ops int) Stats {
	t.Helper()
	dk, ref := New(), newRefSanitizer()
	sys, err := core.New(core.WithSeed(seed), core.WithIOMMUMode(iommu.Deferred), core.WithTracer(teeTracer{dk, ref}))
	if err != nil {
		t.Fatal(err)
	}
	dk.Attach(sys.Mem, sys.Mapper)
	ref.attach(sys.Mem, sys.Mapper)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}

	type object struct {
		addr  layout.Addr
		class uint64
	}
	type mapping struct {
		kva layout.Addr
		va  iommu.IOVA
		n   uint64
		dir dma.Direction
	}
	rng := rand.New(rand.NewSource(seed))
	var live []object
	var mapped []mapping
	kmalloc := func() {
		class := []uint64{64, 512}[rng.Intn(2)]
		n := class - uint64(rng.Intn(int(class/4)))
		a, err := sys.Mem.Slab.Kmalloc(0, n, diffSites[rng.Intn(len(diffSites))])
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, object{a, class})
	}
	for i := 0; i < ops; i++ {
		if len(live) == 0 {
			kmalloc()
		}
		switch op := rng.Intn(16); {
		case op < 5:
			kmalloc()
		case op < 7:
			j := rng.Intn(len(live))
			if err := sys.Mem.Slab.Kfree(live[j].addr); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		case op < 10:
			// Map part of a live object, sometimes running past it onto
			// the next object or page, and sometimes exactly an existing
			// mapping again: both overlap earlier maps.
			obj := live[rng.Intn(len(live))]
			kva := obj.addr + layout.Addr(rng.Intn(int(obj.class)))
			n := 1 + uint64(rng.Intn(int(2*obj.class)))
			if len(mapped) > 0 && rng.Intn(4) == 0 {
				m := mapped[rng.Intn(len(mapped))]
				kva, n = m.kva, m.n
			}
			dir := []dma.Direction{dma.ToDevice, dma.FromDevice, dma.Bidirectional}[rng.Intn(3)]
			va, err := sys.Mapper.MapSingle(nicDev, kva, n, dir)
			if err != nil {
				t.Fatal(err)
			}
			mapped = append(mapped, mapping{kva, va, n, dir})
		case op < 12:
			if len(mapped) == 0 {
				continue
			}
			j := rng.Intn(len(mapped))
			m := mapped[j]
			if err := sys.Mapper.UnmapSingle(nicDev, m.va, m.n, m.dir); err != nil {
				t.Fatal(err)
			}
			mapped = append(mapped[:j], mapped[j+1:]...)
		case op < 15:
			// Stay inside the object: a store past its end would clobber
			// the next free object's freelist link.
			obj := live[rng.Intn(len(live))]
			off := uint64(rng.Intn(int(obj.class)))
			buf := make([]byte, 1+rng.Intn(int(min(64, obj.class-off))))
			a := obj.addr + layout.Addr(off)
			if op == 12 {
				err = sys.Mem.Write(a, buf)
			} else {
				err = sys.Mem.Read(a, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
		default:
			// Reporting off: frame state must still be kept.
			dk.Enabled = rng.Intn(3) != 0
			ref.out.Enabled = dk.Enabled
		}
		if dk.Stats() != ref.out.Stats() {
			t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, i, dk.Stats(), ref.out.Stats())
		}
	}
	if got, want := dk.Render(), ref.out.Render(); got != want {
		t.Fatalf("seed %d: report differs from the reference\ngot:\n%s\nwant:\n%s", seed, got, want)
	}
	return dk.Stats()
}

func TestSanitizerMatchesMapReference(t *testing.T) {
	var total Stats
	for seed := int64(1); seed <= 12; seed++ {
		st := runDiffProgram(t, seed, 600)
		total.AllocAfterMap += st.AllocAfterMap
		total.MapAfterAlloc += st.MapAfterAlloc
		total.AccessAfterMap += st.AccessAfterMap
		total.MultipleMap += st.MultipleMap
	}
	t.Logf("events over all seeds: %+v", total)
	if total.AllocAfterMap == 0 || total.MapAfterAlloc == 0 || total.AccessAfterMap == 0 || total.MultipleMap == 0 {
		t.Fatalf("events %+v: the programs should reach every report class", total)
	}
}
