// D-KASAN trace: boot with the sanitizer attached, run the build+ping
// victim workload of §4.2, and print the Fig. 3-style exposure report.
package main

import (
	"fmt"
	"log"

	"dmafault/internal/core"
	"dmafault/internal/dkasan"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
	"dmafault/internal/workload"
)

func main() {
	dk := dkasan.New()
	sys, err := core.New(core.WithSeed(7), core.WithIOMMUMode(iommu.Deferred), core.WithTracer(dk))
	if err != nil {
		log.Fatal(err)
	}
	dk.Attach(sys.Mem, sys.Mapper)
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := workload.Run(sys, nic, workload.Config{Iterations: 16, NICDevice: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim workload: %d build rounds, %d pings (git clone + make + ping, §4.2)\n\n", res.Builds, res.Pings)
	fmt.Print(dk.Render())
	fmt.Println("\nevery line is a kernel object a DMA-capable device could read or corrupt")
}
