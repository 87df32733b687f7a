package kexec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmafault/internal/layout"
)

// eagerImage is the reference generator: the whole image at once, scrubbed
// byte by byte, then planted. The lazy Text must reproduce it exactly.
func eagerImage(seed int64) []byte {
	b := make([]byte, TextSize)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(b)
	for i := 0; i+2 < len(b); i++ {
		if b[i] == opLeaPfx0 && b[i+1] == opLeaPfx1 && b[i+2] == opLeaPfx2 {
			b[i+2] = opNop
		}
	}
	plant := func(off int, bs ...byte) { copy(b[off:], bs) }
	plant(offPivot, opLeaPfx0, opLeaPfx1, opLeaPfx2, PivotDisplacement, opRet)
	plant(offPopRDI, opPopRDI, opRet)
	plant(offPopRAX, opPopRAX, opRet)
	plant(offPopRSI, opPopRSI, opRet)
	plant(offMovRDIRAX, opMovRDIRAX, opRet)
	plant(offHalt, opHalt)
	return b
}

// eagerScan is the reference scanner: a forward walk over every byte.
func eagerScan(b []byte) []Gadget {
	var out []Gadget
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case opRet:
			if i >= 4 && b[i-4] == opLeaPfx0 && b[i-3] == opLeaPfx1 && b[i-2] == opLeaPfx2 {
				out = append(out, Gadget{Offset: uint64(i - 4), Kind: GadgetPivot, Imm: b[i-1]})
			}
			if i >= 1 {
				switch b[i-1] {
				case opPopRDI:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRDI})
				case opPopRAX:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRAX})
				case opPopRSI:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRSI})
				case opMovRDIRAX:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetMovRDIRAX})
				}
			}
		case opHalt:
			out = append(out, Gadget{Offset: uint64(i), Kind: GadgetHalt})
		}
	}
	return out
}

var allGadgetKinds = []GadgetKind{GadgetPivot, GadgetPopRDI, GadgetPopRAX, GadgetPopRSI, GadgetMovRDIRAX, GadgetHalt}

// TestLazyTextMatchesEager is the differential test of the lazy image, the
// one-pass gadget index and the IndexByte scanner against the eager
// reference, for several seeds and the three orders in which a Text can
// first be touched.
func TestLazyTextMatchesEager(t *testing.T) {
	seeds := []int64{0, 1, 7, 2021, -5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	orders := map[string]func(*Text){
		"gadget-first": func(tx *Text) { tx.FindGadget(GadgetPivot) },
		"last-byte-first": func(tx *Text) {
			tx.fetch(tx.Base() + TextSize - 1)
		},
		"scan-first": func(tx *Text) { tx.Scan() },
	}
	for _, seed := range seeds {
		want := eagerImage(seed)
		wantScan := eagerScan(want)
		for name, touch := range orders {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				tx := NewText(layout.TextStart, seed)
				touch(tx)
				for _, k := range allGadgetKinds {
					got, ok := tx.FindGadget(k)
					var ref Gadget
					var refOK bool
					for _, g := range wantScan {
						if g.Kind == k {
							ref, refOK = g, true
							break
						}
					}
					if got != ref || ok != refOK {
						t.Errorf("FindGadget(%v) = %+v,%v, want %+v,%v", k, got, ok, ref, refOK)
					}
				}
				gotScan := tx.Scan()
				if len(gotScan) != len(wantScan) {
					t.Fatalf("Scan found %d gadgets, reference %d", len(gotScan), len(wantScan))
				}
				for i := range gotScan {
					if gotScan[i] != wantScan[i] {
						t.Fatalf("Scan[%d] = %+v, reference %+v", i, gotScan[i], wantScan[i])
					}
				}
				if !bytes.Equal(tx.bytes, want) {
					t.Fatal("lazy image differs from the eager image")
				}
			})
		}
	}
}

// TestTextGrowsInAnyChunks checks that the scrub and the plants resume
// correctly across arbitrary extension points, including ones that split a
// 48 8d 67 run or a planted gadget.
func TestTextGrowsInAnyChunks(t *testing.T) {
	// Find a seed whose raw filler holds a 48 8d 67 run for the scrub to
	// break, and cut the image inside that run.
	seed, run := int64(2021), -1
	raw := make([]byte, TextSize)
	for ; run < 0; seed++ {
		rand.New(rand.NewSource(seed)).Read(raw)
		run = bytes.Index(raw, pivotPattern)
	}
	seed--
	want := eagerImage(seed)
	for _, cut := range []int{1, run + 1, run + 2, offPivot + 2, offHalt, offHalt + 1, gadgetPrefix} {
		tx := NewText(layout.TextStart, seed)
		tx.grow(cut)
		tx.grow(TextSize)
		if !bytes.Equal(tx.bytes, want) {
			t.Errorf("growing at %#x: image differs from the eager image", cut)
		}
	}
	tx := NewText(layout.TextStart, seed)
	for n := 0; n < TextSize; n += 3_333_331 {
		tx.grow(n)
	}
	tx.grow(TextSize)
	if !bytes.Equal(tx.bytes, want) {
		t.Error("growing in odd-sized chunks: image differs from the eager image")
	}
}

// The tests below lock in the laziness itself, so an eager regression fails
// a test and not only a benchmark.

func TestNewTextHoldsNoBytes(t *testing.T) {
	tx := NewText(layout.TextStart, 1)
	if len(tx.bytes) != 0 || tx.indexed {
		t.Fatalf("NewText generated %d bytes (indexed %v)", len(tx.bytes), tx.indexed)
	}
	if tx.Size() != TextSize || !tx.Contains(layout.TextStart+TextSize-1) {
		t.Error("an ungenerated image must still report its full extent")
	}
}

func TestFindGadgetMaterializesOnlyThePrefix(t *testing.T) {
	tx := NewText(layout.TextStart, 1)
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	if _, err := ExtractBuildOffsets(tx, l.Symbols()); err != nil {
		t.Fatal(err)
	}
	if len(tx.bytes) != gadgetPrefix {
		t.Fatalf("gadget lookups generated %#x bytes, want the %#x-byte prefix", len(tx.bytes), gadgetPrefix)
	}
	if _, ok := tx.FindGadget(GadgetKind(99)); ok {
		t.Error("unknown gadget kind found")
	}
}

// BenchmarkExtractBuildOffsets is the attacker's offline gadget analysis on
// a fresh image per op: lazy prefix generation plus the one-pass index.
func BenchmarkExtractBuildOffsets(b *testing.B) {
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractBuildOffsets(NewText(layout.TextStart, int64(i)), l.Symbols()); err != nil {
			b.Fatal(err)
		}
	}
}
