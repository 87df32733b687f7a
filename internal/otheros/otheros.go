// Package otheros models the §7 survey — how the same sub-page exposure
// plays out on Windows, macOS and FreeBSD network buffers — concretely
// enough to run the attacks against each policy:
//
//   - Windows: NdisAllocateNetBufferMdlAndData allocates the NET_BUFFER
//     metadata and the packet data in a single buffer, so the metadata is
//     DMA-mapped with the data: single-step attacks work (as Markettos et
//     al. showed for NET_BUFFER).
//   - FreeBSD: struct mbuf exposes the raw ext_free callback pointer on the
//     mapped cluster: single-step attacks work.
//   - macOS: the exposed mbuf blinds ext_free by XORing it with a boot
//     secret. A single-step overwrite (no knowledge of the cookie) dies at
//     dispatch — but ext_free "can receive only one of two possible values",
//     so once KASLR falls, one XOR of a leaked blinded value recovers the
//     cookie and compound attacks proceed.
//
// The buffers are binary structures in the simulated memory, mapped through
// the same IOMMU as everything else; dispatch goes through the same NX/ROP
// kernel execution model.
package otheros

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
)

// OS selects the §7 policy under test.
type OS int

const (
	Windows OS = iota
	MacOS
	FreeBSD
)

// String names the OS.
func (o OS) String() string {
	switch o {
	case Windows:
		return "Windows (NET_BUFFER)"
	case MacOS:
		return "macOS (mbuf, blinded ext_free)"
	case FreeBSD:
		return "FreeBSD (mbuf)"
	default:
		return "?"
	}
}

// Binary layout of the modeled network buffer: metadata at the head of the
// allocation, packet data after it — the single-allocation pattern all three
// OSes expose in some form.
const (
	// ExtFreeOff is the offset of the free-callback pointer (mbuf ext_free
	// / NET_BUFFER completion routine).
	ExtFreeOff = 8
	// ExtArgOff is the callback argument slot.
	ExtArgOff = 16
	// DataOff is where packet data starts.
	DataOff = 64
	// BufSize is the whole allocation (metadata + data).
	BufSize = 2048
)

// NetBuffer is one allocated, DMA-mapped network buffer under a policy.
type NetBuffer struct {
	OS   OS
	KVA  layout.Addr
	IOVA iommu.IOVA
	sys  *core.System
	// cookie is the macOS blinding secret (zero elsewhere).
	cookie uint64
}

// Alloc allocates and DMA-maps a network buffer the way the OS does, with a
// benign free callback installed.
func Alloc(sys *core.System, dev iommu.DeviceID, os OS, benignCB layout.Addr, bootSecret uint64) (*NetBuffer, error) {
	kva, err := sys.Mem.Slab.Kzalloc(0, BufSize, "net_buffer_alloc")
	if err != nil {
		return nil, err
	}
	nb := &NetBuffer{OS: os, KVA: kva, sys: sys}
	if os == MacOS {
		nb.cookie = bootSecret
	}
	if err := nb.setCallback(benignCB); err != nil {
		return nil, err
	}
	// RX buffers are written by the device; the metadata rides along on the
	// same allocation, hence the same mapping.
	va, err := sys.Mapper.MapSingle(dev, kva, BufSize, dma.Bidirectional)
	if err != nil {
		return nil, err
	}
	nb.IOVA = va
	return nb, nil
}

// setCallback stores the (possibly blinded) callback pointer.
func (nb *NetBuffer) setCallback(cb layout.Addr) error {
	stored := uint64(cb)
	if nb.OS == MacOS {
		stored ^= nb.cookie
	}
	return nb.sys.Mem.WriteU64(nb.KVA+ExtFreeOff, stored)
}

// Free releases the buffer the way the OS does: load ext_free, unblind it
// under the macOS policy, and call it with the buffer's address — the
// dispatch the attacks hijack.
func (nb *NetBuffer) Free(dev iommu.DeviceID) error {
	stored, err := nb.sys.Mem.ReadU64(nb.KVA + ExtFreeOff)
	if err != nil {
		return err
	}
	if nb.OS == MacOS {
		stored ^= nb.cookie
	}
	if err := nb.sys.Mapper.UnmapSingle(dev, nb.IOVA, BufSize, dma.Bidirectional); err != nil {
		return err
	}
	if err := nb.sys.Kernel.InvokeCallback(layout.Addr(stored), uint64(nb.KVA)); err != nil {
		return fmt.Errorf("otheros: free-callback dispatch: %w", err)
	}
	return nb.sys.Mem.Slab.Kfree(nb.KVA)
}
