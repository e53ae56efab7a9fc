package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/tenant"
)

// goroutineGauge is a trace sink that samples the goroutine count at
// every fleet event. Events are emitted from the ordered pass, so a kill
// at device 0's slot is sampled while the later devices' workers are in
// flight.
type goroutineGauge struct{ peak int }

func (g *goroutineGauge) Record(obs.Event) {
	if n := runtime.NumGoroutine(); n > g.peak {
		g.peak = n
	}
}

func (g *goroutineGauge) Flush() error { return nil }

// servingWorkers counts the goroutines inside runDevice. A worker leaves
// runDevice before it signals the controller's WaitGroup, so after a Run
// that joined its workers the count is exactly zero.
func servingWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("fleet.(*Controller).runDevice"))
}

// TestFleetGoroutineLifetime: a controller owns at most one goroutine
// per device, only inside Run, and every way out of Run joins them — the
// normal return, an armed crash site unwinding through the ordered pass
// while the other devices' workers are mid-partition, and devices dying
// mid-serve with their recovery budgets spent — on single-program
// devices and on the bench's multi-tenant ones, whose workers hand every
// epoch's result back on the same channel.
func TestFleetGoroutineLifetime(t *testing.T) {
	const devices = 4
	killFirst := Config{
		Devices: devices, App: apps.Toy(), Seed: 7, EpochPackets: 2048,
		KillAt: map[int][]int{2: {0}},
	}
	specs, err := tenant.ParseSpecList("firewall:0.4,router:0.3,dnat:0.3", nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	killFirstTenants := Config{
		Devices: devices, Tenants: specs, Seed: 7, EpochPackets: 2048,
		KillAt: map[int][]int{2: {0}},
	}
	dying := Config{Devices: devices, App: apps.Toy(), Seed: 7, EpochPackets: 2048, shell: hairTrigger(1)}
	for _, tc := range []struct {
		name    string
		cfg     Config
		crashAt string
		// inFlight: an event is known to fire while workers are serving.
		inFlight bool
		check    func(t *testing.T, c *Controller, rep Report, err error)
	}{
		{name: "normal-return", cfg: killFirst, inFlight: true,
			check: func(t *testing.T, c *Controller, rep Report, err error) {
				if err != nil || rep.Kills != 1 || !rep.Accounted() {
					t.Fatalf("err %v, report %+v", err, rep)
				}
			}},
		{name: "tenants-normal-return", cfg: killFirstTenants, inFlight: true,
			check: func(t *testing.T, c *Controller, rep Report, err error) {
				if err != nil || rep.Kills != 1 || rep.Delivered == 0 || !rep.Accounted() || !rep.Device.Accounted() {
					t.Fatalf("err %v, report %+v", err, rep)
				}
			}},
		// The armed site panics at device 0's slot, before the kill's
		// event is emitted and before any later device is waited for:
		// the unwind itself must have waited, so every launched worker's
		// result sits undelivered in its channel.
		{name: "crash-site-unwind", cfg: killFirst, crashAt: "rebalance:remove:dev0",
			check: func(t *testing.T, c *Controller, rep Report, err error) {
				if !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("crash site did not fire: err %v", err)
				}
				for _, d := range c.devices[1:] {
					if len(d.served) != 1 {
						t.Errorf("device %d: worker not launched or not joined by the unwind", d.id)
					}
				}
			}},
		{name: "mid-serve-death", cfg: dying,
			check: func(t *testing.T, c *Controller, rep Report, err error) {
				if err != nil || rep.DeadDevices != devices || rep.MidServeLoss == 0 || !rep.Accounted() {
					t.Fatalf("err %v, report %+v", err, rep)
				}
				for _, d := range rep.PerDevice {
					if d.DeathCause == "" {
						t.Errorf("device %d has no death cause", d.ID)
					}
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gauge := &goroutineGauge{}
			cfg := tc.cfg
			cfg.Trace = obs.NewTracer(0, gauge)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.crashAt = tc.crashAt
			base := runtime.NumGoroutine()
			rep, err := c.Run(4)
			if n := servingWorkers(); n != 0 {
				t.Errorf("Run returned with %d workers still serving", n)
			}
			tc.check(t, c, rep, err)
			// Joined workers signal the WaitGroup a few instructions
			// before their goroutines are gone.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines alive, %d before Run: a worker leaked", runtime.NumGoroutine(), base)
				}
			}
			if gauge.peak > base+devices {
				t.Errorf("peak %d goroutines, want at most the %d before Run plus one per device (%d)", gauge.peak, base, devices)
			}
			if tc.inFlight && gauge.peak <= base {
				t.Errorf("peak %d goroutines never rose above the %d before Run: no worker was seen in flight", gauge.peak, base)
			}
		})
	}
}
