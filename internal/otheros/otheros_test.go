package otheros

import (
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
)

const dev iommu.DeviceID = 1

type rig struct {
	sys    *core.System
	atk    *device.Attacker
	benign layout.Addr
	secret uint64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sys, err := core.New(core.WithSeed(77), core.WithIOMMUMode(iommu.Strict))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IOMMU.CreateDomain("nic", dev); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RegisterSymbol("m_freem_ext", func(c *kexec.CPU) error { return nil })
	benign, err := sys.Kernel.FuncAddr("m_freem_ext")
	if err != nil {
		t.Fatal(err)
	}
	build, err := kexec.ExtractBuildOffsets(sys.Kernel.Text(), sys.Layout.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	atk := device.NewAttacker(dev, sys.Bus, sys.Layout.Symbols(), build)
	// All three scenarios assume KASLR has already fallen (Markettos et al.
	// demonstrated the macOS KASLR break; §7).
	initNet, _ := sys.Layout.SymbolKVA("init_net")
	atk.Infer.ObserveWords([]uint64{uint64(initNet)})
	return &rig{sys: sys, atk: atk, benign: benign, secret: 0xc00c1e5eed << 8}
}

// singleStepOverwrite is the Thunderclap-style move: overwrite the stored
// callback with the pivot and plant the chain in the buffer's data area.
func (r *rig) singleStepOverwrite(t *testing.T, nb *NetBuffer, blind uint64) {
	t.Helper()
	pivot, err := r.atk.PivotAddr()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := r.atk.ChainAddresses()
	if err != nil {
		t.Fatal(err)
	}
	// The pivot lands at %rdi (= buffer KVA) + PivotDisplacement.
	if err := r.atk.Bus.Write(r.atk.Dev, nb.IOVA+kexec.PivotDisplacement, kexec.ChainBytes(kexec.EscalationChain(chain))); err != nil {
		t.Fatal(err)
	}
	if err := r.atk.Bus.WriteU64(r.atk.Dev, nb.IOVA+ExtFreeOff, uint64(pivot)^blind); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsNetBufferSingleStep(t *testing.T) {
	// §7: NdisAllocateNetBufferMdlAndData "allocates a NET_BUFFER structure
	// and data in a single memory buffer, exposing the OS to single-step
	// attacks".
	r := newRig(t)
	nb, err := Alloc(r.sys, dev, Windows, r.benign, r.secret)
	if err != nil {
		t.Fatal(err)
	}
	r.singleStepOverwrite(t, nb, 0)
	if err := nb.Free(dev); err != nil {
		t.Fatalf("free dispatch errored: %v", err)
	}
	if r.sys.Kernel.Escalations != 1 {
		t.Fatalf("Escalations = %d", r.sys.Kernel.Escalations)
	}
}

func TestFreeBSDMbufSingleStep(t *testing.T) {
	// §7: "An attack on FreeBSD via this callback pointer was demonstrated
	// by Markettos et al. ... this vulnerability still exists."
	r := newRig(t)
	nb, err := Alloc(r.sys, dev, FreeBSD, r.benign, r.secret)
	if err != nil {
		t.Fatal(err)
	}
	r.singleStepOverwrite(t, nb, 0)
	if err := nb.Free(dev); err != nil {
		t.Fatal(err)
	}
	if r.sys.Kernel.Escalations != 1 {
		t.Fatalf("Escalations = %d", r.sys.Kernel.Escalations)
	}
}

func TestMacOSBlindingStopsSingleStep(t *testing.T) {
	// §7: "blinding the exposed callback pointer ext_free by XORing it with
	// a secret cookie ... is sufficient to defend against single-step
	// attacks."
	r := newRig(t)
	nb, err := Alloc(r.sys, dev, MacOS, r.benign, r.secret)
	if err != nil {
		t.Fatal(err)
	}
	r.singleStepOverwrite(t, nb, 0) // attacker doesn't know the cookie
	err = nb.Free(dev)
	if err == nil {
		t.Fatal("blinded dispatch accepted a raw pointer")
	}
	if r.sys.Kernel.Escalations != 0 {
		t.Fatal("escalated through blinding")
	}
}

func TestMacOSBlindingFallsToCompound(t *testing.T) {
	// §7: "ext_free can receive only one of two possible values. As a
	// result, once an attacker compromises macOS KASLR, the random cookie
	// is revealed by a single XOR operation."
	r := newRig(t)
	nb, err := Alloc(r.sys, dev, MacOS, r.benign, r.secret)
	if err != nil {
		t.Fatal(err)
	}
	// Compound step 1: read the blinded word through the mapping; the
	// attacker knows the plaintext (m_freem_ext's address, KASLR broken).
	stored, err := r.atk.Bus.ReadU64(r.atk.Dev, nb.IOVA+ExtFreeOff)
	if err != nil {
		t.Fatal(err)
	}
	knownPlain, err := r.atk.Infer.SymbolKVA("m_freem_ext")
	if err != nil {
		t.Fatal(err)
	}
	cookie := stored ^ uint64(knownPlain)
	if cookie != r.secret {
		t.Fatalf("cookie recovery failed: %#x vs %#x", cookie, r.secret)
	}
	// Compound step 2: blind the malicious pointer with the recovered
	// cookie; the unblinding dispatch now yields the pivot.
	r.singleStepOverwrite(t, nb, cookie)
	if err := nb.Free(dev); err != nil {
		t.Fatal(err)
	}
	if r.sys.Kernel.Escalations != 1 {
		t.Fatalf("Escalations = %d", r.sys.Kernel.Escalations)
	}
}

func TestOSStrings(t *testing.T) {
	for _, o := range []OS{Windows, MacOS, FreeBSD, OS(9)} {
		if o.String() == "" {
			t.Error("empty OS name")
		}
	}
}

func TestBenignFreePath(t *testing.T) {
	for _, o := range []OS{Windows, MacOS, FreeBSD} {
		r := newRig(t)
		nb, err := Alloc(r.sys, dev, o, r.benign, r.secret)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.Free(dev); err != nil {
			t.Fatalf("%v: benign free errored: %v", o, err)
		}
		if r.sys.Kernel.Invocations["m_freem_ext"] != 1 {
			t.Errorf("%v: benign callback not invoked", o)
		}
	}
}
