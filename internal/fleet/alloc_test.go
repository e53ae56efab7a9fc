//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate.

package fleet

import (
	"testing"

	"ehdl/internal/nic"
	"ehdl/internal/tenant"
)

// TestTenantEpochAllocations: once every flow of its traffic is in the
// maps, one more epoch of the bench's tenant fleet allocates at most one
// object per serving device — the goroutine that serves it — whatever
// EpochPackets is. The verdict histograms, the partition, the classify
// buffers and the hand-off channels are all reused.
func TestTenantEpochAllocations(t *testing.T) {
	const devices = 4
	for _, epochPackets := range []int{256, 1024, 4096} {
		specs, err := tenant.ParseSpecList("firewall:0.4,router:0.3,dnat:0.3", nic.ShellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			app := *specs[i].App
			app.Traffic.Flows = 64 // few enough that the warm-up sees every one
			specs[i].App = &app
		}
		c, err := New(Config{Devices: devices, EpochPackets: epochPackets, Seed: 1, Tenants: specs})
		if err != nil {
			t.Fatal(err)
		}
		epoch := func() {
			c.runEpoch()
			c.epoch++
		}
		for w := 0; w < 8; w++ {
			epoch()
		}
		serving := 0
		for _, b := range c.batches {
			if len(b) > 0 {
				serving++
			}
		}
		got := testing.AllocsPerRun(10, epoch)
		if got > float64(serving) {
			t.Errorf("EpochPackets %d: %v allocations per epoch, want at most one per serving device (%d)", epochPackets, got, serving)
		}
		t.Logf("EpochPackets %d: %v allocations per epoch, %d devices serving", epochPackets, got, serving)
		if rep := c.rep; !rep.Accounted() || rep.Delivered == 0 {
			t.Errorf("EpochPackets %d: report %+v", epochPackets, rep)
		}
	}
}
