package main

import (
	"errors"
	"fmt"

	"repro/internal/testnet"
)

// fleet-sim runs the library scenario scale-fleet once per op on the
// virtual clock: the real Scheduler, FleetController, AuditLedger, TPA
// and ECDSA at fleet scale, with none of the live transport or store.
const (
	fleetScenario = "scale-fleet"
	// fleetWarmup is the small library scenario every setup runs once,
	// so the first timed run finds the code and heap warm.
	fleetWarmup = "baseline-honest"
	// fleetTailPct is never met at a few ops per run; tailPercentile
	// falls back to the median, so op_tail_ms repeats op_p50_ms here.
	fleetTailPct = 0.9
)

// fleetCounterKeys are the program's counters a scale-fleet run moves;
// every run of one seed must move them by the same amounts.
var fleetCounterKeys = []string{
	"geoproof_sched_verdicts_total{outcome=accepted}",
	"geoproof_sched_verdicts_total{outcome=rejected}",
	"geoproof_sched_verdicts_total{outcome=timeout}",
	"geoproof_sched_verdicts_total{outcome=error}",
	"geoproof_sched_retries_total",
	"fleet_transitions",
}

type fleetRun struct {
	hash     string
	audits   int
	counters counters
}

// fleetOp runs the scenario once and checks that it met its declared
// verdict matrix. The hash and counter comparison across runs is the
// caller's.
func fleetOp(spec testnet.Spec) (fleetRun, error) {
	before := readCounters()
	res, err := testnet.Run(spec)
	if err != nil {
		return fleetRun{}, err
	}
	d := readCounters().sub(before)
	d["fleet_transitions"] = d.sumPrefix("geoproof_fleet_transitions_total{")
	run := fleetRun{
		hash:     res.Hash,
		audits:   res.Accepted + res.Rejected + res.Timeouts + res.Errors,
		counters: d,
	}
	if !res.Passed() {
		return run, fmt.Errorf("scenario %s seed %d missed its expectations: %v", spec.Name, spec.Seed, res.Diff)
	}
	return run, nil
}

// fleetChecker holds the first run of a set; every later run must give
// the same trace hash and the same counter deltas.
type fleetChecker struct {
	first *fleetRun
}

// check returns why run differs from the set's first run, or "".
func (fc *fleetChecker) check(run fleetRun) string {
	if fc.first == nil {
		fc.first = &run
		return ""
	}
	if run.hash != fc.first.hash {
		return fmt.Sprintf("trace hash %s differs from the first run's %s", run.hash, fc.first.hash)
	}
	for _, k := range fleetCounterKeys {
		if run.counters[k] != fc.first.counters[k] {
			return fmt.Sprintf("%s moved by %v, the first run's by %v", k, run.counters[k], fc.first.counters[k])
		}
	}
	return ""
}

type fleetPhase struct {
	phase
	audits int
}

func measureFleet(rep *report, spec testnet.Spec, fc *fleetChecker, seconds float64) fleetPhase {
	var out fleetPhase
	out.phase = closedLoop(1, seconds, func(int) {
		run, err := fleetOp(spec)
		if err == nil {
			if why := fc.check(run); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			rep.fail("%v", err)
			rep.mismatch("%v", err)
			return
		}
		out.audits += run.audits
	})
	return out
}

func runFleet(cfg config) (*report, error) {
	rep := newReport()
	spec, setupS, err := timeSetups(setupRepeats, func() (testnet.Spec, error) {
		spec, err := testnet.Lookup(fleetScenario)
		if err != nil {
			return spec, err
		}
		spec.Seed = cfg.Seed
		if err := spec.Validate(); err != nil {
			return spec, err
		}
		warm, err := testnet.Lookup(fleetWarmup)
		if err != nil {
			return spec, err
		}
		if _, err := fleetOp(warm); err != nil {
			return spec, fmt.Errorf("warm-up: %w", err)
		}
		return spec, nil
	}, func(testnet.Spec) {})
	if err != nil {
		return nil, fmt.Errorf("fleet-sim setup: %w", err)
	}

	var fc fleetChecker
	base := measureFleet(rep, spec, &fc, cfg.Seconds)
	rep.Attempted = int64(len(base.LatMs))
	simRate := float64(base.audits) / base.Elapsed.Seconds()
	rep.note("fleet-sim: %s seed %d, %d audits, sim_audits_per_s %.0f", spec.Name, spec.Seed, base.audits, simRate)
	if fc.first != nil {
		rep.note("trace hash %s", fc.first.hash)
	}
	lat := rep.opLatency(base.phase, fleetTailPct)
	if !cfg.Trace {
		rep.setEndToEnd(base.phase, lat, setupS)
		return rep, nil
	}

	var traced fleetPhase
	shares, err := cpuProfile(cfg.WorkDir, func() { traced = measureFleet(rep, spec, &fc, cfg.Seconds) })
	if err != nil {
		return nil, err
	}
	rep.Attempted += int64(len(traced.LatMs))
	setShares(rep, shares)

	m := rep.Metrics
	nb := float64(len(base.LatMs))
	kaudits := float64(base.audits) / 1e3
	m["sim_audits_per_s"] = simRate
	if fc.first != nil {
		c := fc.first.counters
		m["core.sched.verdicts.accepted"] = c["geoproof_sched_verdicts_total{outcome=accepted}"]
		m["core.sched.verdicts.rejected"] = c["geoproof_sched_verdicts_total{outcome=rejected}"]
		m["core.sched.verdicts.timeout"] = c["geoproof_sched_verdicts_total{outcome=timeout}"]
		m["core.sched.verdicts.error"] = c["geoproof_sched_verdicts_total{outcome=error}"]
		m["core.sched.retries"] = c["geoproof_sched_retries_total"]
		m["core.fleet.transitions"] = c["fleet_transitions"]
	}
	m["proc.cpu_ms_per_kaudit"] = float64(base.Proc.CPU.Microseconds()) / 1e3 / kaudits
	m["proc.alloc_MB_per_kaudit"] = float64(base.Proc.AllocBytes) / (1 << 20) / kaudits
	m["proc.gc_per_run"] = float64(base.Proc.GCs) / nb
	rep.setProcLayer(base.phase, traced.phase)
	return rep, nil
}
