// Package kexec models kernel code execution on the victim CPU: the kernel
// text image, the NX-bit policy (§2.4: code never executes from data pages),
// callback dispatch, and the ROP/JOP machinery that DMA code-injection
// attacks use to subvert NX.
//
// The text image uses a small fixed-width-free byte encoding with x86-64
// flavored opcodes, rich enough to express the gadgets the paper's exploit
// needs — in particular the JOP stack pivot "%rsp = %rdi + const" located
// with the ROPgadget tool in §6 — and for a scanner to find them the way
// ROPgadget does: by scanning backward from return instructions.
//
// Execution is interpretation: the CPU fetches from the text image when RIP
// is in the text region, faults with ErrNX anywhere else, and performs stack
// pops through simulated memory, so a poisoned ROP stack on a DMA-writable
// data page behaves exactly as it would on hardware.
package kexec

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"dmafault/internal/layout"
)

// Opcode bytes of the simulated ISA (chosen to match their x86-64 cousins
// where one exists).
const (
	opRet       = 0xc3 // ret
	opPopRDI    = 0x5f // pop %rdi
	opPopRSI    = 0x5e // pop %rsi
	opPopRAX    = 0x58 // pop %rax
	opMovRDIRAX = 0x90 // mov %rdi, %rax (one-byte stand-in)
	opLeaPfx0   = 0x48 // lea %rsp, [%rdi + imm8]  (3-byte: 48 8d 67 imm8)
	opLeaPfx1   = 0x8d
	opLeaPfx2   = 0x67
	opNop       = 0x66 // filler
	opHalt      = 0xf4 // hlt: clean chain terminator
)

// TextSize is the size of the simulated kernel text image (16 MiB).
const TextSize = 16 << 20

// gadget placement offsets inside the image. They sit inside the region the
// symbol table calls pivot_gadget_area so that leaked-symbol arithmetic can
// address them, but the scanner finds them with no symbol knowledge at all.
const (
	offPivot     = 0x7f0040 // 48 8d 67 imm8 c3 : lea rsp,[rdi+imm8]; ret
	offPopRDI    = 0x7f0100 // 5f c3
	offPopRAX    = 0x7f0140 // 58 c3
	offPopRSI    = 0x7f0180 // 5e c3
	offMovRDIRAX = 0x7f01c0 // 90 c3
	offHalt      = 0x7f0200 // f4

	// PivotDisplacement is the imm8 of the planted pivot gadget: the kernel
	// passes the address of the corrupted struct in %rdi, and the ROP chain
	// starts PivotDisplacement bytes past it.
	PivotDisplacement = 0x10
)

// gadgetPrefix is the part of the image FindGadget needs: every planted
// gadget ends inside it, so the first gadget of each kind does too.
const gadgetPrefix = offHalt + 0x100

// pivotPattern is the lea prefix the filler is scrubbed of.
var pivotPattern = []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2}

// plants are the exploit-relevant gadgets, in offset order.
var plants = []struct {
	off  int
	code []byte
}{
	{offPivot, []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2, PivotDisplacement, opRet}},
	{offPopRDI, []byte{opPopRDI, opRet}},
	{offPopRAX, []byte{opPopRAX, opRet}},
	{offPopRSI, []byte{opPopRSI, opRet}},
	{offMovRDIRAX, []byte{opMovRDIRAX, opRet}},
	{offHalt, []byte{opHalt}},
}

// numGadgetKinds is the number of GadgetKind values the scanner reports.
const numGadgetKinds = int(GadgetHalt) + 1

// Text is the kernel's executable image plus its base address.
//
// The image is deterministic pseudo-random "instructions" with the
// exploit-relevant gadgets planted at fixed offsets (real kernels likewise
// contain such gadgets at build-determined offsets). It is generated
// lazily, as a growing prefix: the filler is drawn strictly in order from
// one math/rand stream with Rand.Read's framing, and the pivot scrub and
// the plants resume where the previous extension stopped, so every prefix
// holds exactly the bytes an all-at-once generation would. FindGadget needs
// only the first gadgetPrefix bytes; the rest is generated when something
// fetches or scans past them.
type Text struct {
	base layout.Addr
	rng  *rand.Rand
	// word holds the left bytes of the last filler draw.
	word int64
	left int
	// bytes is the generated prefix of the image.
	bytes []byte
	// scrubbed is the first index the pivot scrub has not examined yet;
	// planted counts the plants already written.
	scrubbed, planted int

	// The gadget index: the first gadget of each kind, in Scan order.
	indexed bool
	first   [numGadgetKinds]Gadget
	found   [numGadgetKinds]bool
}

// NewText returns the kernel text image for a seed. It generates nothing:
// the image materializes on first use.
func NewText(base layout.Addr, seed int64) *Text {
	return &Text{base: base, rng: rand.New(rand.NewSource(seed))}
}

// need makes the first n bytes of the image available: the gadget prefix,
// or the whole image once anything past it is needed.
func (t *Text) need(n int) {
	switch {
	case n <= len(t.bytes):
	case n <= gadgetPrefix:
		t.grow(gadgetPrefix)
	default:
		t.grow(TextSize)
	}
}

// grow extends the generated image to its first n bytes.
func (t *Text) grow(n int) {
	if n <= len(t.bytes) {
		return
	}
	lo := len(t.bytes)
	b := make([]byte, n)
	copy(b, t.bytes)
	t.bytes = b
	t.draw(b[lo:])
	// Keep accidental pivots out of the filler so gadget discovery is
	// deterministic: break up any 48 8d 67 run. The pattern cannot overlap
	// itself, so resuming after a match examines what a byte-by-byte pass
	// would; the last two positions wait for the next extension.
	for {
		j := bytes.Index(b[t.scrubbed:], pivotPattern)
		if j < 0 {
			break
		}
		t.scrubbed += j
		b[t.scrubbed+2] = opNop
		t.scrubbed += 3
	}
	t.scrubbed = max(t.scrubbed, n-2)
	// Plant a gadget once every scrub window over its bytes was examined
	// on the filler, as if the whole image had been scrubbed first.
	for t.planted < len(plants) {
		p := plants[t.planted]
		if p.off+len(p.code) > t.scrubbed {
			break
		}
		copy(b[p.off:], p.code)
		t.planted++
	}
}

// draw fills b with the next filler bytes. The framing is math/rand's
// Rand.Read: seven little-endian bytes per Int63, the rest of a draw
// carried into the next call. Whole words are stored eight bytes at a time,
// the eighth overwritten by the next word, which is several times faster
// than Rand.Read's byte loop.
func (t *Text) draw(b []byte) {
	i := 0
	for ; i < len(b) && t.left > 0; i++ {
		b[i], t.word, t.left = byte(t.word), t.word>>8, t.left-1
	}
	for ; i+8 <= len(b); i += 7 {
		binary.LittleEndian.PutUint64(b[i:], uint64(t.rng.Int63()))
	}
	for ; i < len(b); i++ {
		if t.left == 0 {
			t.word, t.left = t.rng.Int63(), 7
		}
		b[i], t.word, t.left = byte(t.word), t.word>>8, t.left-1
	}
}

// Base returns the (KASLR-randomized) load address of the image.
func (t *Text) Base() layout.Addr { return t.base }

// Size returns the image size in bytes.
func (t *Text) Size() uint64 { return TextSize }

// Contains reports whether the address falls inside the image.
func (t *Text) Contains(a layout.Addr) bool {
	return a >= t.base && a < t.base+TextSize
}

// fetch returns the byte at the address (caller checked Contains).
func (t *Text) fetch(a layout.Addr) byte {
	off := int(a - t.base)
	if off >= len(t.bytes) {
		t.need(off + 1)
	}
	return t.bytes[off]
}

// Gadget is one scanner finding.
type Gadget struct {
	Offset uint64 // offset in the image; runtime address = base + offset
	Kind   GadgetKind
	Imm    byte // displacement for pivot gadgets
}

// GadgetKind classifies a found gadget.
type GadgetKind int

const (
	GadgetPivot GadgetKind = iota // lea %rsp,[%rdi+imm8]; ret
	GadgetPopRDI
	GadgetPopRAX
	GadgetPopRSI
	GadgetMovRDIRAX
	GadgetHalt
)

// String names the gadget in disassembly style.
func (k GadgetKind) String() string {
	switch k {
	case GadgetPivot:
		return "lea rsp,[rdi+imm]; ret"
	case GadgetPopRDI:
		return "pop rdi; ret"
	case GadgetPopRAX:
		return "pop rax; ret"
	case GadgetPopRSI:
		return "pop rsi; ret"
	case GadgetMovRDIRAX:
		return "mov rdi, rax; ret"
	case GadgetHalt:
		return "hlt"
	default:
		return "unknown"
	}
}

// Scan is the ROPgadget-equivalent: it walks the image looking for short
// instruction sequences that end in a return (plus hlt terminators), the way
// §6 located the JOP gadget "%rsp = %rdi + const".
func (t *Text) Scan() []Gadget {
	t.need(TextSize)
	var out []Gadget
	scanGadgets(t.bytes, func(g Gadget) bool {
		out = append(out, g)
		return true
	})
	return out
}

// scanGadgets reports every gadget in b in image order, until visit returns
// false. A ret yields the pivot ending there before the one-byte gadget, as
// a forward byte walk would.
func scanGadgets(b []byte, visit func(Gadget) bool) {
	nextRet, nextHlt := indexFrom(b, 0, opRet), indexFrom(b, 0, opHalt)
	for nextRet >= 0 || nextHlt >= 0 {
		if nextHlt >= 0 && (nextRet < 0 || nextHlt < nextRet) {
			if !visit(Gadget{Offset: uint64(nextHlt), Kind: GadgetHalt}) {
				return
			}
			nextHlt = indexFrom(b, nextHlt+1, opHalt)
			continue
		}
		// Look backward for a recognized sequence ending here.
		i := nextRet
		if i >= 4 && b[i-4] == opLeaPfx0 && b[i-3] == opLeaPfx1 && b[i-2] == opLeaPfx2 {
			if !visit(Gadget{Offset: uint64(i - 4), Kind: GadgetPivot, Imm: b[i-1]}) {
				return
			}
		}
		if i >= 1 {
			kind := GadgetKind(-1)
			switch b[i-1] {
			case opPopRDI:
				kind = GadgetPopRDI
			case opPopRAX:
				kind = GadgetPopRAX
			case opPopRSI:
				kind = GadgetPopRSI
			case opMovRDIRAX:
				kind = GadgetMovRDIRAX
			}
			if kind >= 0 && !visit(Gadget{Offset: uint64(i - 1), Kind: kind}) {
				return
			}
		}
		nextRet = indexFrom(b, i+1, opRet)
	}
}

// indexFrom is the index of the first c in b[i:], as an index into b, or -1.
func indexFrom(b []byte, i int, c byte) int {
	if j := bytes.IndexByte(b[i:], c); j >= 0 {
		return i + j
	}
	return -1
}

// FindGadget returns the first gadget of the kind, as an image offset. The
// first call indexes every kind in one pass over the gadget prefix.
func (t *Text) FindGadget(kind GadgetKind) (Gadget, bool) {
	if kind < 0 || int(kind) >= numGadgetKinds {
		return Gadget{}, false
	}
	if !t.indexed {
		t.buildIndex()
	}
	return t.first[kind], t.found[kind]
}

// buildIndex records the first gadget of each kind. The plants put one of
// each inside the gadget prefix, so the pass never needs the rest of the
// image, and it stops once every kind is found.
func (t *Text) buildIndex() {
	t.need(gadgetPrefix)
	missing := numGadgetKinds
	scanGadgets(t.bytes, func(g Gadget) bool {
		if !t.found[g.Kind] {
			t.first[g.Kind], t.found[g.Kind] = g, true
			missing--
		}
		return missing > 0
	})
	t.indexed = true
}
