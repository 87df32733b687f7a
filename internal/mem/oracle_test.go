package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"dmafault/internal/layout"
)

// Model-based tests of physical memory: a program of Read/Write/ReadPhys/
// WritePhys/Memset calls runs against a Memory and against a flat []byte
// oracle, and every result, error and final byte must agree. The section
// layout is an implementation detail the oracle knows nothing about.

// oraclePhysBytes is three full sections plus a partial fourth, so programs
// reach the short last section and the end of memory.
const oraclePhysBytes = 3*sectionSize + 5*layout.PageSize

// opAnchors are the physical addresses op addresses cluster around: page and
// section boundaries, the end of memory and beyond.
var opAnchors = []uint64{
	0, layout.PageSize, sectionSize - layout.PageSize, sectionSize,
	2*sectionSize + 3*layout.PageSize, 3 * sectionSize,
	oraclePhysBytes - layout.PageSize, oraclePhysBytes,
	oraclePhysBytes + sectionSize, 1 << 40,
}

// opSize is the encoded length of one op in a program.
const opSize = 6

// memOp is one decoded call.
type memOp struct {
	kind byte // 0 Read, 1 Write, 2 ReadPhys, 3 WritePhys, 4 Memset
	pa   uint64
	n    uint64
	v    byte
}

// decodeOp maps opSize bytes to a call: an anchor plus a signed delta for
// the address, a length on one of four scales up to 8 MiB, and a fill value
// that is zero half the time.
func decodeOp(b []byte) memOp {
	op := memOp{
		kind: b[0] % 5,
		pa:   opAnchors[int(b[1])%len(opAnchors)] + uint64(int64(int8(b[2]))),
		v:    b[5],
	}
	n := uint64(b[3]&63)<<8 | uint64(b[4])
	switch b[3] >> 6 {
	case 0:
		n = uint64(b[4])
	case 2:
		n *= 64
	case 3:
		n *= 512
	}
	op.n = n
	if op.v&1 == 0 {
		op.v = 0
	}
	return op
}

// writeData is the deterministic payload of a Write/WritePhys op.
func writeData(op memOp) []byte {
	buf := make([]byte, op.n)
	for i := range buf {
		buf[i] = op.v ^ byte(i*31+int(op.pa))
	}
	return buf
}

// runProgram executes program against a fresh Memory and the oracle, reports
// the first disagreement, and counts the ops that succeeded and failed.
func runProgram(t *testing.T, program []byte) (ok, failed int) {
	t.Helper()
	l := layout.New(layout.Config{PhysBytes: oraclePhysBytes})
	m, err := New(Config{Layout: l, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]byte, oraclePhysBytes)
	inBounds := func(pa, n uint64) bool {
		return pa < oraclePhysBytes && n <= oraclePhysBytes-pa
	}
	for i := 0; i+opSize <= len(program); i += opSize {
		op := decodeOp(program[i : i+opSize])
		// A KVA op goes wrong if its address falls below the direct map
		// or past the backed part of it, exactly as the phys bounds say.
		kva := l.PhysToKVA(op.pa)
		wantOK := inBounds(op.pa, op.n)
		var err error
		switch op.kind {
		case 0, 2:
			buf := bytes.Repeat([]byte{0xa5}, int(op.n))
			if op.kind == 0 {
				err = m.Read(kva, buf)
			} else {
				err = m.ReadPhys(op.pa, buf)
			}
			want := bytes.Repeat([]byte{0xa5}, int(op.n))
			if wantOK {
				want = oracle[op.pa : op.pa+op.n]
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d %+v: read bytes differ from the oracle", i/opSize, op)
			}
		case 1, 3:
			data := writeData(op)
			if op.kind == 1 {
				err = m.Write(kva, data)
			} else {
				err = m.WritePhys(op.pa, data)
			}
			if wantOK {
				copy(oracle[op.pa:], data)
			}
		case 4:
			err = m.Memset(kva, op.v, op.n)
			if wantOK {
				for j := op.pa; j < op.pa+op.n; j++ {
					oracle[j] = op.v
				}
			}
		}
		if (err == nil) != wantOK {
			t.Fatalf("op %d %+v: err = %v, oracle in bounds = %v", i/opSize, op, err, wantOK)
		}
		if wantOK {
			ok++
		} else {
			failed++
		}
	}
	got := make([]byte, oraclePhysBytes)
	if err := m.ReadPhys(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("final memory differs from the oracle")
	}
	return ok, failed
}

func TestMemoryMatchesFlatOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 400*opSize)
		rng.Read(program)
		if ok, failed := runProgram(t, program); ok < 100 || failed < 100 {
			t.Fatalf("seed %d: %d ops succeeded and %d failed; the program should exercise both", seed, ok, failed)
		}
	}
}

func FuzzMemoryOps(f *testing.F) {
	// The seed corpus in testdata/fuzz/FuzzMemoryOps holds the edge cases
	// a random draw may miss: section-straddling writes and fills,
	// zero-length and out-of-bounds ops, the short last section.
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 64*opSize {
			program = program[:64*opSize]
		}
		runProgram(t, program)
	})
}

// The tests below lock in the laziness itself, so an eager regression fails
// a test and not only a benchmark.

func materializedSections(m *Memory) int {
	n := 0
	for _, s := range m.sections {
		if s != nil {
			n++
		}
	}
	return n
}

func TestNewMaterializesNoSection(t *testing.T) {
	m := newTestMemory(t, 128<<20, 1)
	if n := materializedSections(m); n != 0 {
		t.Fatalf("New materialized %d sections", n)
	}
	// Reads and zero fills of absent memory leave it absent.
	var b [16]byte
	if err := m.ReadPhys(5<<20, b[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Memset(m.Layout().PhysToKVA(9<<20), 0, 3*sectionSize); err != nil {
		t.Fatal(err)
	}
	if n := materializedSections(m); n != 0 {
		t.Fatalf("reads and zero Memset materialized %d sections", n)
	}
}

func TestOneByteWriteMaterializesOneSection(t *testing.T) {
	m := newTestMemory(t, 128<<20, 1)
	if err := m.WritePhys(77<<20+123, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := materializedSections(m); n != 1 {
		t.Fatalf("a one-byte write materialized %d sections", n)
	}
	var w [8]byte
	if err := m.ReadPhys(77<<20+120, w[:]); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(w[:]); got != 1<<24 {
		t.Fatalf("read back %#x around the written byte", got)
	}
}
