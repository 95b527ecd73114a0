package metronome_test

import (
	"fmt"
	"testing"
	"time"

	"metronome"
	"metronome/internal/experiments"
)

// TestFacadeEntriesShareOneDeployment pins that the facade's Simulate*
// entries are one deployment — experiments.Deploy — seen through different
// windows: with nothing to add, each must reproduce its neighbour exactly.
func TestFacadeEntriesShareOneDeployment(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 2
	cfg.Policy = metronome.PolicyRMetronome
	cfg.Seed = 21
	crowd := metronome.StepTraffic{At: 0.04, Before: metronome.CBR{PPS: 1e6},
		After: metronome.StepTraffic{At: 0.1, Before: metronome.CBR{PPS: 9e6},
			After: metronome.CBR{PPS: 1e6}}}
	arrivals := []metronome.Traffic{crowd, metronome.CBR{PPS: 3e6}}
	const d = 150 * time.Millisecond
	ecfg := metronome.DefaultElasticConfig(2, 6)
	ecfg.TargetOccupancy = 0.05
	show := func(v ...any) string { return fmt.Sprintf("%+v", v) }

	em, erep := metronome.SimulateElastic(cfg, ecfg, arrivals, d)
	if erep.Resizes == 0 {
		t.Fatalf("the crowd never resized the team, so the comparison is vacuous: %+v", erep)
	}
	base := show(em, erep)

	for _, evs := range [][]metronome.FaultEvent{nil, {}} {
		fm, frep := metronome.SimulateFaults(cfg, ecfg, arrivals, d, evs)
		if got := show(fm, frep); got != base {
			t.Errorf("SimulateFaults with schedule %v diverged from SimulateElastic:\n got %s\nwant %s", evs, got, base)
		}
	}

	priced := ecfg
	priced.Power = metronome.DefaultPowerConfig()
	pm, prep := metronome.SimulateElastic(cfg, priced, arrivals, d)
	wm, wrep, joules := metronome.SimulatePower(cfg, ecfg, metronome.PowerConfig{}, arrivals, d)
	if joules <= 0 {
		t.Fatalf("SimulatePower priced the run at %v J", joules)
	}
	if got, want := show(wm, wrep), show(pm, prep); got != want {
		t.Errorf("SimulatePower diverged from SimulateElastic under the same calibration:\n got %s\nwant %s", got, want)
	}

	static := metronome.Simulate(cfg, arrivals, d)
	_, dm, _ := experiments.Deploy(arrivals, experiments.Deployment{Cfg: cfg, Dur: d.Seconds()})
	if got, want := show(dm), show(static); got != want {
		t.Errorf("Deploy without a controller diverged from Simulate:\n got %s\nwant %s", got, want)
	}
}
