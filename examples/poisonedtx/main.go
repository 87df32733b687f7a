// Poisoned TX (§5.4): a malicious NIC coerces an echo service into copying
// its payload into TX frag pages, reads the pages' struct page pointers from
// the transmitted skb_shared_info, and turns them into the KVA it needs to
// finish the Fig. 4 code-injection.
package main

import (
	"fmt"
	"log"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func main() {
	// The victim: a server running an echo-style service (proxy, KV store,
	// streaming — §5.4 lists the usual suspects). IOMMU protection is on,
	// in the default deferred mode.
	sys, err := core.New(core.WithSeed(1337), core.WithIOMMUMode(iommu.Deferred))
	if err != nil {
		log.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		log.Fatal(err)
	}

	r := attacks.RunPoisonedTX(sys, nic)
	fmt.Print(r.String())
	fmt.Printf("\nkernel escalations observed: %d\n", sys.Kernel.Escalations)
	fmt.Println("note: works in strict mode too — the i40e unmap ordering provides the window (Fig. 7 path i)")
}
