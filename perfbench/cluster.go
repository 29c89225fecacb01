package main

import (
	"bytes"
	"fmt"
	"time"

	"gpushare/internal/cluster"
	"gpushare/internal/core"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
	"gpushare/perfbench/check"
)

const (
	clusterNodes       = 64
	clusterGPUsPerNode = 8
	// A round plans one stream of clusterWorkflows workflows with one
	// Planner.Plan call. bench-cluster's default of 20000 takes about 2 s
	// to plan, which leaves a run too few rounds to average over.
	clusterWorkflows = 5000
	// plannerBuilds is how many planners a round builds, each timed as
	// a set-up; the round plans with the last.
	plannerBuilds  = 16
	gangFraction   = 0.15
	gangSize       = 3
	priorityLevels = 3
	tenantCount    = 3
)

// clusterGangs plans seeded multi-tenant submission streams on a 64x8
// cluster of MPS, MIG and time-sliced nodes: fair share, gangs,
// priorities and preemption. The streams come from the program's own
// generator (cluster.GenerateStream) at its default load, as
// `gpusched bench-cluster` draws them.
type clusterGangs struct {
	spec   cluster.Spec
	seed   uint64
	rounds int
	// The last planned stream, for the what-if count.
	subs    []cluster.Submission
	planner *cluster.Planner
}

func clusterSpec() cluster.Spec {
	spec := cluster.Spec{Queue: cluster.FairShare, Preemption: true}
	modes := []cluster.Mode{cluster.ModeMPS, cluster.ModeMIG, cluster.ModeTimeSlice}
	for n := 0; n < clusterNodes; n++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{
			Name: fmt.Sprintf("node-%03d", n), Device: device, GPUs: clusterGPUsPerNode, Mode: modes[n%len(modes)],
		})
	}
	for i := 0; i < tenantCount; i++ {
		spec.Tenants = append(spec.Tenants, cluster.TenantSpec{Name: fmt.Sprintf("tenant-%02d", i), Weight: 1 + i%3})
	}
	return spec
}

// clusterStream draws a submission stream: the fleet generator's
// workflows for the cluster's size, fixed like the core workloads' so
// every stream offers the same work, and the tenant, priority and gang
// draws, which come from seed.
func (c *clusterGangs) clusterStream(seed uint64) ([]cluster.Submission, *profile.Store, error) {
	tenants := make([]string, len(c.spec.Tenants))
	for i, t := range c.spec.Tenants {
		tenants[i] = t.Name
	}
	return cluster.GenerateStream(device, cluster.StreamSpec{
		Fleet:          core.FleetSpec{Workflows: clusterWorkflows, TargetGPUs: c.spec.GPUCount(), Seed: fleetSeed},
		Tenants:        tenants,
		PriorityLevels: priorityLevels,
		GangFraction:   gangFraction,
		GangSize:       gangSize,
		Seed:           seed,
	})
}

func (c *clusterGangs) setup(cfg *config) (float64, error) {
	c.seed = cfg.seed
	c.spec = clusterSpec()
	// Set-up is timed in every round: the planners of its stream.
	return 0, nil
}

// round plans a new stream, so a run averages over several of them:
// how contended a stream gets varies from one draw to the next.
func (c *clusterGangs) round(acc *accum) error {
	subs, store, err := c.clusterStream(c.seed<<20 | uint64(c.rounds))
	if err != nil {
		return err
	}
	var planner *cluster.Planner
	for i := 0; i < plannerBuilds; i++ {
		start := time.Now()
		if planner, err = cluster.NewPlanner(c.spec, store); err != nil {
			return err
		}
		acc.setups = append(acc.setups, time.Since(start).Seconds())
	}
	var out *cluster.Outcome
	err = acc.timed(func() error {
		start := time.Now()
		var err error
		out, err = planner.Plan(subs)
		d := time.Since(start)
		acc.latMS = append(acc.latMS, float64(d)/1e6)
		acc.span("cluster.Planner.Plan", d)
		return err
	})
	if err != nil {
		return err
	}
	acc.ops += int64(len(subs))
	if bad := check.Cluster(c.spec, subs, store, out); len(bad) > 0 {
		acc.addFailures(int64(len(bad)), bad)
		acc.wrong += len(bad)
	}
	c.subs, c.planner = subs, planner
	if acc.traced {
		acc.counts["subs"] += float64(len(subs))
		acc.counts["jobs"] += float64(len(out.Jobs))
		for _, j := range out.Jobs {
			acc.counts["job_s"] += j.MakespanS
			acc.counts["wait_s"] += j.WaitedS
		}
		acc.counts["dispatches"] += float64(len(out.Dispatches))
		acc.counts["probes"] += float64(out.Stats.Probes)
		acc.counts["holds"] += float64(out.Stats.GangHolds)
		acc.counts["evictions"] += float64(len(out.Evictions))
		evicted := map[[2]string]int{}
		for _, e := range out.Evictions {
			acc.counts["lost_s"] += e.LostS
			evicted[[2]string{e.Gang, e.Workflow}]++
		}
		// A dispatch was kept when no later eviction undid it: each
		// eviction undoes one dispatch of that member.
		kept := 0
		for _, d := range out.Dispatches {
			k := [2]string{d.Gang, d.Workflow}
			if evicted[k] > 0 {
				evicted[k]--
				continue
			}
			kept++
		}
		acc.counts["kept"] += float64(kept)
	}
	c.rounds++
	return nil
}

// whatIfs plans one stream with an obs hub active and counts the
// preemption what-if records its flight recorder sees.
func (c *clusterGangs) whatIfs() (int64, error) {
	hub := obs.NewHub(func() int64 { return time.Now().UnixNano() })
	hub.Flight = obs.NewFlight(1)
	var cw kindCounter
	hub.Flight.SetSpill(&cw)
	prev := obs.SetActive(hub)
	defer obs.SetActive(prev)
	if _, err := c.planner.Plan(c.subs); err != nil {
		return 0, err
	}
	if err := hub.Flight.SpillErr(); err != nil {
		return 0, err
	}
	for _, r := range hub.Flight.Snapshot().Records {
		if r.Kind == obs.FlightWhatIf {
			cw.n++
		}
	}
	return cw.n, nil
}

// kindCounter counts spilled flight records of kind what-if; each Write
// is one JSONL record.
type kindCounter struct{ n int64 }

var whatIfKind = []byte(fmt.Sprintf(`"kind":%d,`, obs.FlightWhatIf))

func (k *kindCounter) Write(p []byte) (int, error) {
	if bytes.Contains(p, whatIfKind) {
		k.n++
	}
	return len(p), nil
}

func (c *clusterGangs) usage() (float64, float64, error) { return selfUsage() }

func (c *clusterGangs) close() {}

func (c *clusterGangs) layers(acc *accum, m map[string]float64) {
	subs := acc.counts["subs"]
	m["cluster.self_us_per_submission"] = acc.selfNS["cluster"] / 1e3 / subs
	m["interference.self_us_per_op"] = acc.selfPerOp("interference")
	m["eventq.self_us_per_op"] = acc.selfPerOp("eventq")
	m["obs.self_us_per_arrival"] = acc.selfPerOp("obs")
	m["core.self_us_per_arrival"] = acc.selfPerOp("core")
	m["cluster.probes_per_submission"] = acc.counts["probes"] / subs
	m["cluster.probes_per_dispatch"] = acc.counts["probes"] / acc.counts["dispatches"]
	m["cluster.holds_per_submission"] = acc.counts["holds"] / subs
	m["cluster.plan_s"] = acc.spanQuantile("cluster.Planner.Plan", 0.5) / 1e3
	m["cluster.evictions_per_submission"] = acc.counts["evictions"] / subs
	m["cluster.kept_dispatch_ratio"] = acc.counts["kept"] / acc.counts["dispatches"]
	m["cluster.lost_s_per_submission"] = acc.counts["lost_s"] / subs
	m["cluster.sim_mean_wait_s"] = acc.counts["wait_s"] / acc.counts["jobs"]
	m["cluster.sim_mean_job_s"] = acc.counts["job_s"] / acc.counts["jobs"]
	if n, err := c.whatIfs(); err == nil {
		m["cluster.whatifs_per_submission"] = float64(n) / float64(len(c.subs))
	} else {
		acc.errors = append(acc.errors, fmt.Sprintf("what-if count: %v", err))
	}
}
