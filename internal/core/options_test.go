package core

import (
	"bytes"
	"strings"
	"testing"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
	"dmafault/internal/trace"
)

func TestNewDefaultsAndOptions(t *testing.T) {
	s, err := New(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.IOMMU.Mode() != iommu.Deferred {
		t.Errorf("default mode = %v, want deferred", s.IOMMU.Mode())
	}
	if s.Metrics == nil {
		t.Fatal("New did not attach a metrics registry")
	}
	if s.Trace() != nil {
		t.Error("tracing armed without WithTracing")
	}
	// KASLR defaults on for New: two seeds must draw different layouts.
	s2, err := New(WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout.TextBase == s2.Layout.TextBase && s.Layout.PageOffsetBase == s2.Layout.PageOffsetBase {
		t.Error("KASLR appears off by default under New")
	}

	s3, err := New(
		WithSeed(3), WithKASLR(false), WithIOMMUMode(iommu.Strict),
		WithCPUs(2), WithMemBytes(64<<20), WithForwarding(),
		WithOutOfLineSharedInfo(), WithTracing(128),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s3.IOMMU.Mode() != iommu.Strict {
		t.Error("WithIOMMUMode not applied")
	}
	if s3.Mem.NumPages() != (64<<20)/4096 {
		t.Errorf("WithMemBytes not applied: %d pages", s3.Mem.NumPages())
	}
	if !s3.Net.Forwarding || !s3.Net.OutOfLineSharedInfo {
		t.Error("forwarding/out-of-line options not applied")
	}
	if s3.Trace() == nil {
		t.Error("WithTracing did not arm the ring")
	}
}

func TestWithoutMetrics(t *testing.T) {
	s, err := New(WithSeed(1), WithoutMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics != nil {
		t.Error("WithoutMetrics still built a registry")
	}
}

func TestSystemMetricsGather(t *testing.T) {
	s, err := New(WithSeed(5), WithIOMMUMode(iommu.Deferred), WithTracing(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNIC(1, netstack.DriverI40E, 0); err != nil {
		t.Fatal(err)
	}
	buf, _ := s.Mem.Slab.Kmalloc(0, 512, "io")
	va, err := s.Mapper.MapSingle(1, buf, 512, dma.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Mapper.UnmapSingle(1, va, 512, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Metrics.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total("iommu_unmaps_total") < 1 {
		t.Error("iommu unmap not counted")
	}
	if snap.Total("iommu_flush_queue_pending") < 1 {
		t.Error("deferred unmap not pending in flush queue gauge")
	}
	if snap.Total("mem_slab_allocs_total") == 0 || snap.Total("mem_page_allocs_total") == 0 {
		t.Error("allocator counters missing")
	}
	if snap.Total("trace_events_retained") == 0 {
		t.Error("trace ring not visible through the registry")
	}
	var b bytes.Buffer
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE iommu_maps_total counter",
		`iommu_flush_queue_pending{domain="i40e"}`,
		`netstack_nic_rx_ring_size{dev="1",driver="i40e"} 256`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestEnableTracingTwiceSwapsRing(t *testing.T) {
	s, err := New(WithSeed(6), WithIOMMUMode(iommu.Strict))
	if err != nil {
		t.Fatal(err)
	}
	first := s.EnableTracing(8)
	if _, err := s.IOMMU.CreateDomain("nic", 1); err != nil {
		t.Fatal(err)
	}
	buf, _ := s.Mem.Slab.Kmalloc(0, 512, "io")
	va, _ := s.Mapper.MapSingle(1, buf, 512, dma.FromDevice)
	if got := first.CountKind(trace.EvDMAMap); got != 1 {
		t.Fatalf("first ring map events = %d", got)
	}

	second := s.EnableTracing(8)
	if second == first {
		t.Fatal("second EnableTracing returned the same ring")
	}
	if s.Trace() != second {
		t.Error("System.Trace not following the swap")
	}
	if err := s.Mapper.UnmapSingle(1, va, 512, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	// The unmap lands only in the new ring; the old ring keeps its history.
	if got := second.CountKind(trace.EvDMAUnmap); got != 1 {
		t.Errorf("second ring unmap events = %d", got)
	}
	if got := first.CountKind(trace.EvDMAUnmap); got != 0 {
		t.Errorf("detached first ring still receives events (%d unmaps)", got)
	}
	if got := first.CountKind(trace.EvDMAMap); got != 1 {
		t.Errorf("first ring lost its history (%d maps)", got)
	}
	// The registry follows the live ring.
	snap, err := s.Metrics.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total("trace_events_retained") != 1 {
		t.Errorf("registry sees %v retained events, want 1 (the new ring's)",
			snap.Total("trace_events_retained"))
	}
}
