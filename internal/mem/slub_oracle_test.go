package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"dmafault/internal/layout"
)

// Model-based tests of the SLUB allocator: a program of kmalloc, kzalloc,
// kfree and object scribbles runs against a SlabAllocator and against a flat
// model of every slab's live objects and freelist. After every op the
// freelist links in simulated memory, which a device can read whenever an
// object on the page is DMA-mapped (Fig. 1(b)), must equal the model's.

const slabOpSize = 3

// slabOracleBytes leaves room for a few hundred slabs of every order.
const slabOracleBytes = 32 << 20

var slabOracleSites = []string{"sock_alloc_inode", "load_elf_phdrs", "__alloc_skb", "assoc_array_insert"}

// slabOp is one decoded call.
type slabOp struct {
	kind byte // 0 kmalloc, 1 kzalloc, 2 kfree, 3 scribble
	a, b byte
}

// decodeSlabOp maps slabOpSize bytes to a call; allocation is weighted so
// programs grow slabs as well as empty them.
func decodeSlabOp(p []byte) slabOp {
	kind := [...]byte{0, 0, 0, 1, 2, 2, 2, 3}[p[0]%8]
	return slabOp{kind: kind, a: p[1], b: p[2]}
}

// allocSize picks a request size: any size of one class, or an invalid one.
func allocSize(op slabOp) uint64 {
	i := int(op.a&15) % (len(SizeClasses) + 1)
	if i == len(SizeClasses) {
		if op.b&1 == 0 {
			return 0
		}
		return KmallocMax + 1 + uint64(op.b)
	}
	var prev uint64
	if i > 0 {
		prev = SizeClasses[i-1]
	}
	return prev + 1 + uint64(op.b)%(SizeClasses[i]-prev)
}

// modelSlab is one slab as the model sees it: a class and its freelist,
// head first.
type modelSlab struct {
	class uint64
	free  []layout.Addr
	inuse int
}

type modelObj struct {
	class uint64
	site  string
}

// accessTracer records CPU accesses.
type accessTracer struct{ events []cpuAccess }

type cpuAccess struct {
	a     layout.Addr
	n     uint64
	write bool
}

func (t *accessTracer) OnKmalloc(a layout.Addr, size uint64, site string) {}
func (t *accessTracer) OnKfree(a layout.Addr, size uint64)                {}
func (t *accessTracer) OnPageAlloc(p layout.PFN, order uint)              {}
func (t *accessTracer) OnPageFree(p layout.PFN, order uint)               {}
func (t *accessTracer) OnCPUAccess(a layout.Addr, n uint64, write bool) {
	t.events = append(t.events, cpuAccess{a, n, write})
}

// slabRun is the outcome of one program, for coverage checks.
type slabRun struct {
	stats  SlabStats
	failed int // ops the model expected to fail, and that did
}

// runSlabProgram executes program against a fresh allocator and the model
// and reports the first disagreement.
func runSlabProgram(t *testing.T, program []byte) slabRun {
	t.Helper()
	l := layout.New(layout.Config{PhysBytes: slabOracleBytes})
	tr := &accessTracer{}
	m, err := New(Config{Layout: l, CPUs: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Slab
	slabs := map[layout.Addr]*modelSlab{} // by base KVA
	objs := map[layout.Addr]modelObj{}
	var live, freed []layout.Addr // in op order, so victims are deterministic
	var want SlabStats
	var run slabRun

	// slabBase is the start of the slab holding a: slabs are naturally
	// aligned buddy blocks.
	slabBase := func(a layout.Addr, class uint64) (layout.Addr, uint64) {
		bytes := uint64(layout.PageSize) << slabOrder(class)
		return a &^ layout.Addr(bytes-1), bytes
	}
	readU64 := func(a layout.Addr) uint64 {
		pa, err := l.KVAToPhys(a)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		if err := m.ReadPhys(pa, b[:]); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint64(b[:])
	}

	for i := 0; i+slabOpSize <= len(program); i += slabOpSize {
		op := decodeSlabOp(program[i : i+slabOpSize])
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %d %+v: "+format, append([]any{i / slabOpSize, op}, args...)...)
		}
		tr.events = tr.events[:0]
		switch op.kind {
		case 0, 1:
			n := allocSize(op)
			site := slabOracleSites[op.a>>4%4]
			var a layout.Addr
			if op.kind == 0 {
				a, err = s.Kmalloc(int(op.a>>7), n, site)
			} else {
				a, err = s.Kzalloc(int(op.a>>7), n, site)
			}
			class := uint64(0)
			for _, c := range SizeClasses {
				if c >= n && n > 0 {
					class = c
					break
				}
			}
			if class == 0 {
				if err == nil {
					fail("kmalloc(%d) succeeded, want an error", n)
				}
				run.failed++
				continue
			}
			if err != nil {
				fail("kmalloc(%d): %v", n, err)
			}
			base, size := slabBase(a, class)
			sl := slabs[base]
			if sl == nil {
				// A new slab: only when no slab of the class has room, and
				// on pages no live object uses.
				for b, other := range slabs {
					if other.class == class && len(other.free) > 0 {
						fail("new slab at %#x while slab %#x of class %d has free objects", uint64(base), uint64(b), class)
					}
					if b < base+layout.Addr(size) && base < b+layout.Addr(uint64(layout.PageSize)<<slabOrder(other.class)) {
						fail("new slab at %#x overlaps slab %#x", uint64(base), uint64(b))
					}
				}
				sl = &modelSlab{class: class}
				for o := uint64(0); o+class <= size; o += class {
					sl.free = append(sl.free, base+layout.Addr(o))
				}
				slabs[base] = sl
				want.SlabsCreated++
				pa, _ := l.KVAToPhys(base)
				if pa>>sectionShift != (pa+size-1)>>sectionShift {
					fail("slab [%#x,+%d) straddles a memory section", pa, size)
				}
				// Threading the freelist is one 8-byte CPU store per object,
				// last object first.
				if len(tr.events) < len(sl.free) {
					fail("new slab of %d objects made %d CPU accesses", len(sl.free), len(tr.events))
				}
				for j, e := range tr.events[:len(sl.free)] {
					if w := (cpuAccess{sl.free[len(sl.free)-1-j], 8, true}); e != w {
						fail("freelist store %d = %+v, want %+v", j, e, w)
					}
				}
				for p := layout.PFN(0); p < layout.PFN(size/layout.PageSize); p++ {
					pfn, _ := l.KVAToPFN(base)
					if pi := m.mustPage(pfn + p); !pi.Has(FlagSlab) || pi.SlabClass != class {
						fail("frame %d of slab %#x: flags %#x class %d", p, uint64(base), pi.Flags, pi.SlabClass)
					}
				}
			}
			if sl.class != class {
				fail("object %#x of class %d lands on a slab of class %d", uint64(a), class, sl.class)
			}
			if len(sl.free) == 0 || sl.free[0] != a {
				fail("kmalloc returned %#x, the slab's freelist head is %v", uint64(a), sl.free[:min(1, len(sl.free))])
			}
			if uint64(a-base)%class != 0 || uint64(a-base)+class > size {
				fail("object %#x is not class-aligned inside slab %#x", uint64(a), uint64(base))
			}
			for _, b := range live {
				if o := objs[b]; b < a+layout.Addr(class) && a < b+layout.Addr(o.class) {
					fail("object [%#x,+%d) overlaps live [%#x,+%d)", uint64(a), class, uint64(b), o.class)
				}
			}
			sl.free = sl.free[1:]
			sl.inuse++
			want.Allocs++
			objs[a] = modelObj{class, site}
			live = append(live, a)
			if op.kind == 1 {
				buf := make([]byte, class)
				pa, _ := l.KVAToPhys(a)
				if err := m.ReadPhys(pa, buf); err != nil || !bytes.Equal(buf, make([]byte, class)) {
					fail("kzalloc object %#x is not zero (%v)", uint64(a), err)
				}
			}
		case 2:
			mode := op.a % 8
			if len(live) == 0 || (mode == 0 && len(freed) == 0) {
				continue
			}
			switch mode {
			case 0:
				// A freed address that is not live again: double free or
				// a pointer into a slab that has since gone.
				a := freed[int(op.b)%len(freed)]
				if _, ok := objs[a]; ok {
					continue
				}
				if err := s.Kfree(a); err == nil {
					fail("kfree of non-live %#x succeeded", uint64(a))
				}
				run.failed++
			case 1:
				a := live[int(op.b)%len(live)]
				p := a + 1 + layout.Addr(uint64(op.b)%(objs[a].class-1))
				if err := s.Kfree(p); err == nil {
					fail("kfree of interior pointer %#x succeeded", uint64(p))
				}
				run.failed++
			default:
				j := int(op.b) % len(live)
				a := live[j]
				if err := s.Kfree(a); err != nil {
					fail("kfree(%#x): %v", uint64(a), err)
				}
				o := objs[a]
				base, _ := slabBase(a, o.class)
				sl := slabs[base]
				sl.free = append([]layout.Addr{a}, sl.free...)
				sl.inuse--
				want.Frees++
				if sl.inuse == 0 {
					delete(slabs, base)
					want.SlabsDestroyed++
				}
				delete(objs, a)
				live = append(live[:j], live[j+1:]...)
				freed = append(freed, a)
				if _, err := s.SizeOf(a); err == nil {
					fail("ksize of freed %#x succeeded", uint64(a))
				}
			}
		case 3:
			if len(live) == 0 {
				continue
			}
			a := live[int(op.b)%len(live)]
			if err := m.Memset(a, op.a|1, objs[a].class); err != nil {
				fail("scribble %#x: %v", uint64(a), err)
			}
		}

		// Kfree does not count Frees (mem_slab_frees_total reads 0), and
		// that zero is inside pinned summary bytes; compare the rest.
		if got := s.Stats(); got.Allocs != want.Allocs || got.SlabsCreated != want.SlabsCreated || got.SlabsDestroyed != want.SlabsDestroyed {
			fail("stats %+v, model %+v", got, want)
		}
		for _, a := range live {
			o := objs[a]
			if size, err := s.SizeOf(a); err != nil || size != o.class {
				fail("SizeOf(%#x) = %d, %v; want %d", uint64(a), size, err, o.class)
			}
			if site, err := s.SiteOf(a); err != nil || site != o.site {
				fail("SiteOf(%#x) = %q, %v; want %q", uint64(a), site, err, o.site)
			}
		}
		for base, sl := range slabs {
			for j, a := range sl.free {
				var next uint64
				if j+1 < len(sl.free) {
					next = uint64(sl.free[j+1])
				}
				if got := readU64(a); got != next {
					fail("slab %#x: free object %#x links to %#x, model says %#x", uint64(base), uint64(a), got, next)
				}
			}
		}
	}
	run.stats = want
	return run
}

func TestSlabMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 500*slabOpSize)
		rng.Read(program)
		run := runSlabProgram(t, program)
		if run.stats.SlabsCreated < 10 || run.stats.SlabsDestroyed == 0 || run.stats.Frees < 50 || run.failed < 20 {
			t.Fatalf("seed %d: %+v, %d expected failures; the program should create, empty and misuse slabs", seed, run.stats, run.failed)
		}
	}
}

func FuzzSlabOps(f *testing.F) {
	for _, seed := range []int64{1, 2021} {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 64*slabOpSize)
		rng.Read(program)
		f.Add(program)
	}
	// Fill and then empty one class-8 slab: every free op hits the same
	// slab until it is destroyed.
	var fillEmpty []byte
	for i := 0; i < 40; i++ {
		fillEmpty = append(fillEmpty, 0, 0, 7)
	}
	for i := 0; i < 40; i++ {
		fillEmpty = append(fillEmpty, 4, 2, 0)
	}
	f.Add(fillEmpty)
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 128*slabOpSize {
			program = program[:128*slabOpSize]
		}
		runSlabProgram(t, program)
	})
}
