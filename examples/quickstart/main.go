// Quickstart: boot a simulated machine, map a 64-byte buffer for a device,
// and watch the whole surrounding page leak — the sub-page vulnerability in
// one screen of code.
package main

import (
	"fmt"
	"log"

	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
)

func main() {
	// Boot: KASLR on, deferred IOTLB invalidation (the Linux default).
	sys, err := core.New(core.WithSeed(42), core.WithIOMMUMode(iommu.Deferred))
	if err != nil {
		log.Fatal(err)
	}
	const nic iommu.DeviceID = 1
	if _, err := sys.IOMMU.CreateDomain("nic", nic); err != nil {
		log.Fatal(err)
	}

	// The driver kmallocs a 64-byte I/O buffer...
	ioBuf, err := sys.Mem.Slab.Kmalloc(0, 64, "driver_io_buf")
	if err != nil {
		log.Fatal(err)
	}
	// ...and, unrelatedly, the kernel keeps a secret in a same-class object.
	secret, err := sys.Mem.Slab.Kmalloc(0, 64, "session_key")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Mem.Write(secret, []byte("hunter2-hunter2!")); err != nil {
		log.Fatal(err)
	}

	// dma_map_single maps 64 bytes — says the API. The IOMMU maps the page.
	va, err := sys.Mapper.MapSingle(nic, ioBuf, 64, dma.Bidirectional)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped 64 bytes at KVA %#x → IOVA %#x\n", uint64(ioBuf), uint64(va))

	// The device reads the *secret* through the I/O buffer's mapping: both
	// objects live on one 4 KiB page, and IOMMU protection stops at page
	// granularity.
	leak := make([]byte, 16)
	secretIOVA := va + iommu.IOVA(secret-ioBuf)
	if err := sys.Bus.Read(nic, secretIOVA, leak); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device read %q from a buffer it was never given\n", leak)

	// Unmap — and in deferred mode the device *still* has access for up to
	// 10 ms through its stale IOTLB entry.
	if err := sys.Mapper.UnmapSingle(nic, va, 64, dma.Bidirectional); err != nil {
		log.Fatal(err)
	}
	if err := sys.Bus.Read(nic, secretIOVA, leak); err == nil {
		fmt.Printf("after dma_unmap (deferred mode): device STILL reads %q\n", leak)
	}
	stats := sys.IOMMU.Stats()
	fmt.Printf("IOMMU stats: %d maps, %d unmaps, %d stale-entry hits\n",
		stats.Maps, stats.Unmaps, stats.StaleHits)
}
