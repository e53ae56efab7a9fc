// Chaos recovery suite: the self-healing acceptance campaign. Every
// evaluation app runs under a seeded SEU map-flip barrage with ECC and
// scrubbing armed; the contract is that no corruption survives
// uncorrected, the final map state is bit-for-bit the fault-free
// state, the same seed reproduces the same campaign exactly — and that
// with protection off the very same seeds do corrupt the maps, so the
// equality above is the protection working and not the campaign being
// toothless.
package faults_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// seuCampaign is the map-flip barrage of the acceptance criteria: only
// SEUMapEntry fires, at a rate that lands many upsets per run but stays
// below the point where two flips pile into the same 64-bit word before
// the scrubber's next visit (which would exceed SECDED and rightly
// trigger a state-losing recovery — that path has its own tests in
// hwsim).
func seuCampaign(seed int64) faults.Config {
	return faults.Single(faults.SEUMapEntry, 0.002, seed)
}

// recoveryRun drives one protected (or unprotected) campaign and
// returns the report, the final stats and the decoded final map state.
func recoveryRun(t *testing.T, app *apps.App, fc faults.Config, level protect.Level, packets int) (nic.Report, hwsim.Stats, string) {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nic.ShellConfig{Faults: fc}
	cfg.Sim.Protection = level
	cfg.Sim.ScrubCyclesPerWord = 1
	cfg.Sim.WatchdogCycles = 200000
	sh, err := nic.New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, packets, sh.LineRateMpps(64)*1e6)
	if err != nil {
		t.Fatalf("%s: campaign errored instead of healing: %v", app.Name, err)
	}
	return rep, sh.Stats(), dumpMaps(sh.Maps())
}

// dumpMaps renders the full map state as sorted key=value lines, read
// through Lookup so Protected maps hand back the decoded (corrected)
// words rather than raw storage the scrubber has not reached yet.
func dumpMaps(set *maps.Set) string {
	var b strings.Builder
	for id := 0; id < set.Len(); id++ {
		m, _ := set.ByID(id)
		var keys [][]byte
		m.Iterate(func(key, _ []byte) bool {
			keys = append(keys, append([]byte(nil), key...))
			return true
		})
		sort.Slice(keys, func(i, j int) bool { return string(keys[i]) < string(keys[j]) })
		for _, k := range keys {
			v, ok := m.Lookup(k)
			if !ok {
				// Quarantined or vanished mid-dump: render the miss itself,
				// so states with and without the entry never compare equal.
				b.WriteString(m.Spec().Name + "/" + string(k) + "=<missing>\n")
				continue
			}
			b.WriteString(m.Spec().Name + "/" + string(k) + "=" + string(v) + "\n")
		}
	}
	return b.String()
}

// TestChaosRecoveryHealsEveryApp is the acceptance campaign: under the
// SEU map-flip barrage with ECC + scrubbing, every upset is corrected
// (none uncorrectable, none silently resident), and the final map state
// equals the fault-free run of the same traffic bit for bit.
func TestChaosRecoveryHealsEveryApp(t *testing.T) {
	const packets = 1500
	for _, app := range chaosApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			// Fault-free protected baseline: what the maps must end as.
			_, _, want := recoveryRun(t, app, faults.Config{}, protect.LevelECC, packets)

			rep, st, got := recoveryRun(t, app, seuCampaign(7), protect.LevelECC, packets)
			if rep.FaultsInjected == 0 {
				t.Skipf("%s: campaign found no populated map entry to flip", app.Name)
			}
			if rep.CorrectedWords == 0 {
				t.Errorf("%d upsets injected, none corrected", rep.FaultsInjected)
			}
			if rep.UncorrectableWords != 0 {
				t.Errorf("%d upsets escaped correction (%d recoveries)", rep.UncorrectableWords, rep.Recoveries)
			}
			if st.ScrubPasses == 0 {
				t.Error("scrubber never completed a pass")
			}
			if got != want {
				t.Errorf("final map state differs from the fault-free run:\nfault-free:\n%s\ncampaign:\n%s",
					want, got)
			}
		})
	}
}

// TestChaosRecoveryProtectionOffStillCorrupts closes the loop on the
// healing test: the same seeds with protection disabled leave the maps
// visibly corrupted, proving the campaign really damages state and the
// bit-for-bit equality above is earned by the ECC path.
func TestChaosRecoveryProtectionOffStillCorrupts(t *testing.T) {
	const packets = 1500
	corruptedSomewhere := false
	for _, app := range chaosApps() {
		_, _, want := recoveryRun(t, app, faults.Config{}, protect.LevelNone, packets)
		rep, _, got := recoveryRun(t, app, seuCampaign(7), protect.LevelNone, packets)
		if rep.FaultsInjected == 0 {
			continue
		}
		if got != want {
			corruptedSomewhere = true
		}
	}
	if !corruptedSomewhere {
		t.Fatal("no app's final state changed under the unprotected campaign: the barrage is toothless")
	}
}

// TestChaosRecoverySameSeedReproduces extends the determinism contract
// to the protection machinery: identical seeds with ECC + scrubbing
// reproduce identical reports, stats and final decoded map state.
func TestChaosRecoverySameSeedReproduces(t *testing.T) {
	for _, app := range []*apps.App{apps.Firewall(), apps.DNAT()} {
		rep1, st1, dump1 := recoveryRun(t, app, seuCampaign(99), protect.LevelECC, 1200)
		rep2, st2, dump2 := recoveryRun(t, app, seuCampaign(99), protect.LevelECC, 1200)
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: reports diverged across same-seed protected runs:\n%+v\n%+v", app.Name, rep1, rep2)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Errorf("%s: stats diverged across same-seed protected runs", app.Name)
		}
		if dump1 != dump2 {
			t.Errorf("%s: final map state diverged across same-seed protected runs", app.Name)
		}
	}
}

// TestChaosRecoveryFullProfile arms the complete chaos profile (every
// fault class at once) on top of ECC + scrubbing: the shell must still
// degrade gracefully, and every single-bit map upset the campaign lands
// must be corrected or escalated into a recovery — never silent.
func TestChaosRecoveryFullProfile(t *testing.T) {
	for _, app := range chaosApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			rep, st, _ := recoveryRun(t, app, faults.Profile(1.0, 23), protect.LevelECC, 1500)
			checkLegalActions(t, app.Name, rep)
			if rep.Received == 0 {
				t.Fatal("pipeline answered nothing under full chaos with protection on")
			}
			if st.WordsChecked == 0 {
				t.Error("protection configured but no word was ever checked")
			}
			if rep.UncorrectableWords > 0 && rep.Recoveries == 0 {
				t.Errorf("%d uncorrectable words but no recovery fired", rep.UncorrectableWords)
			}
		})
	}
}
