package attacks

import (
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func TestFreelistDoS(t *testing.T) {
	sys, _ := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	atk, err := attackerFor(sys)
	if err != nil {
		t.Fatal(err)
	}
	r := RunFreelistDoS(sys, atk)
	t.Log("\n" + r.String())
	if !r.Success {
		t.Fatal("freelist DoS did not halt the allocator")
	}
	if sys.Kernel.Escalations != 0 {
		t.Error("DoS should not escalate privileges")
	}
}

func TestOutOfLineSharedInfoDefeatsPoisonedTX(t *testing.T) {
	// D3 ablation: segregating skb_shared_info from I/O memory (§9.2's
	// proposed direction) breaks the compound attacks, because the window
	// writes land in payload padding instead of metadata.
	sys, err := core.New(core.WithSeed(1234), core.WithIOMMUMode(iommu.Deferred), core.WithOutOfLineSharedInfo())
	if err != nil {
		t.Fatal(err)
	}
	nic, err := sys.AddNIC(attackerDev, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := RunPoisonedTX(sys, nic)
	t.Log("\n" + r.String())
	if r.Success {
		t.Fatal("Poisoned TX succeeded despite out-of-line shared info")
	}
	if sys.Kernel.Escalations != 0 {
		t.Error("escalated despite hardening")
	}
}
