package main

import (
	"fmt"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
	"gpushare/internal/workflow"
	"gpushare/perfbench/check"
)

const (
	// fleetSeed fixes the core workloads' arrival stream: the program's
	// own fleet generator at gpusched's default -seed. These are the
	// workloads on which the dispatcher's clock fault fails arrivals, and
	// which arrivals fail depends on the stream; with a stream that does
	// not depend on --seed, every round fails the same arrivals, so the
	// failed share is a property of the program.
	fleetSeed = 42
	// roundArrivals is the timed arrivals per round, ingested in batches
	// of batchSize.
	roundArrivals = 8192
	batchSize     = 64
)

var device = gpu.MustLookup("A100X")

// energyClientCap is the energy policy's per-GPU client limit: the
// device's MPS maximum.
var energyClientCap = device.MaxMPSClients

// warmArrivals is the warm-up that fills an empty fleet of gpus devices.
// At the generator's default gap about 2.4 workflows per GPU are in
// flight (FleetSpec.MeanGapS); twice that many arrivals span two mean
// durations, so the first residents have ended and the fleet is in its
// steady state.
func warmArrivals(gpus int) int { return int(2 * 3 * 0.8 * float64(gpus)) }

// fleetStream draws the first n arrivals of the program's fleet stream
// for gpus devices at the generator's default load, and the profile
// store they are planned from.
func fleetStream(gpus, n int) ([]check.Arrival, *profile.Store, error) {
	src, store, err := core.NewFleetSource(device, core.FleetSpec{Workflows: n, TargetGPUs: gpus, Seed: fleetSeed})
	if err != nil {
		return nil, nil, err
	}
	out := make([]check.Arrival, 0, n)
	for {
		a, ok := src.Next()
		if !ok {
			return out, store, nil
		}
		t := a.Workflow.Tasks[0]
		p, err := store.Lookup(t.Benchmark, t.Size)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, check.Arrival{At: a.At, Name: a.Workflow.Name, Profile: p, Iterations: t.Iterations})
	}
}

// toArrival is the arrival as the scheduler takes it.
func toArrival(a check.Arrival) core.Arrival {
	return core.Arrival{At: a.At, Workflow: workflow.Workflow{
		Name:  a.Name,
		Tasks: []workflow.Task{{Benchmark: a.Profile.Workload, Size: a.Profile.Size, Iterations: a.Iterations}},
	}}
}

// fromEvent copies a dispatch event for the checker.
func fromEvent(ev core.DispatchEvent) check.Event {
	along := append([]string(nil), ev.RunningAlongside...)
	return check.Event{At: ev.At, Workflow: ev.Workflow, GPU: ev.GPU, WaitedS: ev.WaitedS, RunningAlongside: along}
}

// eventLog keeps a Streamer's dispatch events. The Streamer reuses the
// storage of RunningAlongside on its next Ingest, so the names are
// copied out into one flat slice.
type eventLog struct {
	evs    []core.DispatchEvent
	names  []string
	bounds [][2]int
}

func (l *eventLog) reset() { l.evs, l.names, l.bounds = l.evs[:0], l.names[:0], l.bounds[:0] }

func (l *eventLog) add(ev core.DispatchEvent) {
	lo := len(l.names)
	l.names = append(l.names, ev.RunningAlongside...)
	l.bounds = append(l.bounds, [2]int{lo, len(l.names)})
	l.evs = append(l.evs, ev)
}

func (l *eventLog) event(i int) check.Event {
	ev := l.evs[i]
	ev.RunningAlongside = l.names[l.bounds[i][0]:l.bounds[i][1]]
	return fromEvent(ev)
}

// checkLog replays arrivals and the events the program returned for
// them through c. It returns how many arrivals failed the check and
// their violations; a malformed log is an error.
func checkLog(c *check.Core, as []check.Arrival, event func(i int) check.Event) (failed int64, msgs []string, err error) {
	for i, a := range as {
		bad, err := c.Check(a, event(i))
		if err != nil {
			return 0, nil, err
		}
		if len(bad) > 0 {
			failed++
			msgs = append(msgs, bad...)
		}
	}
	return failed, msgs, nil
}

// fleetGPUs is fleet-scan's fleet size.
const fleetGPUs = 4096

// fleetScan drives core.Streamer in process: energy policy, 4096 GPUs,
// telemetry off. Set-up fills the empty fleet with the warm-up arrivals
// and snapshots it; every round resumes from that snapshot and ingests
// the same timed arrivals, so every round does the same work.
type fleetScan struct {
	sched    *core.Scheduler
	state    *core.StreamState
	arrivals []check.Arrival // warm-up, then timed
	in       []core.Arrival
	warm     eventLog
	chk      *check.Core // state after the warm-up, built by the first round
	log      eventLog
}

func (f *fleetScan) setup(cfg *config) (float64, error) {
	warm := warmArrivals(fleetGPUs)
	arrivals, store, err := fleetStream(fleetGPUs, warm+roundArrivals)
	if err != nil {
		return 0, err
	}
	f.arrivals = arrivals
	for _, a := range f.arrivals {
		f.in = append(f.in, toArrival(a))
	}
	f.warm.evs = make([]core.DispatchEvent, 0, warm)
	start := time.Now()
	if f.sched, err = core.NewScheduler(device, fleetGPUs, store, core.EnergyPolicy()); err != nil {
		return 0, err
	}
	st, err := f.sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		return 0, err
	}
	for _, a := range f.in[:warm] {
		ev, err := st.Ingest(a)
		if err != nil {
			return 0, err
		}
		f.warm.add(ev)
	}
	took := time.Since(start).Seconds()
	f.state, err = st.SaveState()
	return took, err
}

func (f *fleetScan) round(acc *accum) error {
	warm := len(f.warm.evs)
	if f.chk == nil {
		f.chk = check.NewCore(device, fleetGPUs, energyClientCap)
		failed, _, err := checkLog(f.chk, f.arrivals[:warm], f.warm.event)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		acc.setupChecked += int64(warm)
		acc.setupFailed += failed
	}
	st, err := f.sched.RestoreStreamer(core.StreamConfig{}, f.state)
	if err != nil {
		return err
	}
	in := f.in[warm:]
	f.log.reset()
	stats0 := st.Stats()
	err = acc.timed(func() error {
		for b := 0; b < len(in); b += batchSize {
			start := time.Now()
			for _, a := range in[b : b+batchSize] {
				var t0 time.Time
				if acc.traced {
					t0 = time.Now()
				}
				ev, err := st.Ingest(a)
				if err != nil {
					return err
				}
				if acc.traced {
					acc.span("core.Streamer.Ingest", time.Since(t0))
				}
				f.log.add(ev)
			}
			acc.latMS = append(acc.latMS, float64(time.Since(start))/1e6)
		}
		return nil
	})
	if err != nil {
		return err
	}
	stats1 := st.Stats()
	acc.counts["probes"] += float64(stats1.Probes - stats0.Probes)
	acc.counts["waits"] += float64(stats1.Waits - stats0.Waits)
	acc.counts["completions"] += float64(stats1.Completions - stats0.Completions)
	acc.counts["arrivals"] += float64(len(in))
	acc.ops += int64(len(in))
	failed, msgs, err := checkLog(f.chk.Clone(), f.arrivals[warm:], f.log.event)
	if err != nil {
		return err
	}
	acc.addFailures(failed, msgs)
	return nil
}

func (f *fleetScan) usage() (float64, float64, error) { return selfUsage() }

func (f *fleetScan) close() {}

func (f *fleetScan) layers(acc *accum, m map[string]float64) {
	n := acc.counts["arrivals"]
	m["core.self_us_per_arrival"] = acc.selfPerOp("core")
	m["interference.self_us_per_op"] = acc.selfPerOp("interference")
	m["eventq.self_us_per_op"] = acc.selfPerOp("eventq")
	m["obs.self_us_per_arrival"] = acc.selfPerOp("obs")
	m["core.probes_per_arrival"] = acc.counts["probes"] / n
	m["core.waits_per_arrival"] = acc.counts["waits"] / n
	m["core.retirements_per_arrival"] = acc.counts["completions"] / n
	if p := acc.counts["probes"]; p > 0 {
		m["core.ns_per_probe"] = (acc.selfNS["core"] + acc.selfNS["interference"]) / p
	}
	m["core.ingest_us.p50"] = 1e3 * acc.spanQuantile("core.Streamer.Ingest", 0.5)
	_, p99 := latencyQuantiles(acc.spans["core.Streamer.Ingest"], 0.99)
	m["core.ingest_us.p99"] = 1e3 * p99
	// Telemetry is off in process, so the active hub's recorder (nil-safe)
	// should have seen nothing.
	m["obs.flight_records_per_arrival"] = float64(obs.Active().FlightRecorder().Snapshot().Total) / n
}
