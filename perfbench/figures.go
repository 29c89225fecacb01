package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"gpushare/internal/experiments"
	"gpushare/internal/obs"
	"gpushare/internal/parallel"
	"gpushare/perfbench/check"
)

// paperFigures regenerates every registered experiment (full sweeps)
// once per round. Each pass empties the simulation cache and takes the
// next seed, so it simulates instead of hitting a memo. The cache
// itself is reused: the experiments memoize Figure 2 rows per cache,
// and a fresh cache per pass would pin every earlier pass's results.
type paperFigures struct {
	opts   experiments.Options
	exps   []experiments.Experiment
	passes uint64
	// Cache counters at the end of the previous pass.
	hits, misses int64
}

// setup builds the options and runs every experiment once in quick mode,
// so lazy initialisation is done before the first timed pass.
func (p *paperFigures) setup(cfg *config) (float64, error) {
	start := time.Now()
	p.exps = experiments.All()
	// One worker: a pass spread over both of a small host's CPUs is timed
	// by whichever CPU the rest of the machine slows most.
	p.opts = experiments.Options{Seed: cfg.seed << 32, Workers: 1, Cache: parallel.NewCache()}
	quick := p.opts
	quick.Quick = true
	for _, e := range p.exps {
		if err := e.Run(quick, io.Discard); err != nil {
			return 0, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// pass runs every experiment once on an empty cache.
func (p *paperFigures) pass(acc *accum) (experiments.Options, error) {
	opts := p.opts
	opts.Seed += p.passes
	p.passes++
	opts.Cache.Reset()
	err := acc.timed(func() error {
		pass := time.Now()
		for _, e := range p.exps {
			start := time.Now()
			if err := e.Run(opts, io.Discard); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			acc.span("experiments."+e.ID, time.Since(start))
		}
		// The request is the whole pass: single experiments differ in
		// length by orders of magnitude, so a percentile over them would
		// only say which experiment sits at the cut.
		acc.latMS = append(acc.latMS, float64(time.Since(pass))/1e6)
		return nil
	})
	return opts, err
}

func (p *paperFigures) round(acc *accum) error {
	opts, err := p.pass(acc)
	if err != nil {
		return err
	}
	acc.ops++
	// The Figure 2 rows were memoized by the pass; this reads them back.
	combos, err := experiments.RunCombos(opts)
	if err != nil {
		return err
	}
	if bad := check.Figure2(combos); len(bad) > 0 {
		acc.addFailures(1, bad)
		acc.wrong += len(bad)
	}
	speed, energy := 0.0, 0.0
	for _, c := range combos {
		speed += math.Log(c.MPS.Throughput)
		energy += math.Log(c.MPS.EnergyEfficiency)
	}
	acc.counts["log_speedup"] += speed / float64(len(combos))
	acc.counts["log_energy"] += energy / float64(len(combos))
	st := opts.Cache.Stats()
	acc.counts["cache_hits"] += float64(st.Hits - p.hits)
	acc.counts["cache_misses"] += float64(st.Misses - p.misses)
	p.hits, p.misses = st.Hits, st.Misses
	return nil
}

func (p *paperFigures) usage() (float64, float64, error) { return selfUsage() }

func (p *paperFigures) close() {}

func (p *paperFigures) layers(acc *accum, m map[string]float64) {
	passes := float64(acc.ops)
	for _, e := range p.exps {
		m["experiments."+e.ID+"_ms"] = acc.spanQuantile("experiments."+e.ID, 0.5)
	}
	m["experiments.sim_mps_speedup"] = math.Exp(acc.counts["log_speedup"] / passes)
	m["experiments.sim_mps_energy_gain"] = math.Exp(acc.counts["log_energy"] / passes)
	m["parallel.cache_hits_per_pass"] = acc.counts["cache_hits"] / passes
	m["parallel.cache_misses_per_pass"] = acc.counts["cache_misses"] / passes
	m["gpusim.self_ms_per_pass"] = acc.selfNS["gpusim"] / 1e6 / passes
	m["profile.self_ms_per_pass"] = acc.selfNS["profile"] / 1e6 / passes
	m["eventq.self_us_per_op"] = acc.selfPerOp("eventq")
	m["interference.self_us_per_op"] = acc.selfPerOp("interference")
	// Engine counts come from one more pass with an obs hub active.
	hub := obs.NewHub(func() int64 { return time.Now().UnixNano() })
	prev := obs.SetActive(hub)
	_, err := p.pass(newAccum(p))
	obs.SetActive(prev)
	if err != nil {
		acc.errors = append(acc.errors, fmt.Sprintf("counting pass: %v", err))
		acc.wrong++
		return
	}
	runs := hub.Counter("engine_runs_total").Value()
	events := hub.Counter("engine_events_total").Value()
	m["gpusim.runs_per_pass"] = float64(runs)
	m["gpusim.events_per_pass"] = float64(events)
	if events > 0 {
		m["gpusim.ns_per_event"] = acc.selfNS["gpusim"] / passes / float64(events)
	}
}
