package check

import (
	"fmt"

	"gpushare/internal/cluster"
	"gpushare/internal/interference"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
)

// defaultOverheadS, defaultTimeSliceCap: the restart penalty and the
// time-slice resident cap cluster.Spec documents for zero values.
const (
	defaultOverheadS    = 10
	defaultTimeSliceCap = 4
)

// placed is one gang member resident on a GPU in the replay.
type placed struct {
	gang, workflow string
	end            simtime.Time
	prof           *profile.TaskProfile
}

// nodeRule is a node's admission rule, resolved from its spec.
type nodeRule struct {
	spec     cluster.NodeSpec
	cap      int
	instMiB  int64
	capSMPct float64
}

// Cluster checks a cluster.Outcome against the submissions it planned.
// It returns the violations found; an empty list means the plan keeps
// every rule. Each violation names the gang at fault.
func Cluster(spec cluster.Spec, subs []cluster.Submission, store *profile.Store, out *cluster.Outcome) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	overhead := spec.PreemptionOverheadS
	if overhead == 0 {
		overhead = defaultOverheadS
	}
	nodes := map[string]int{}
	rules := make([]nodeRule, len(spec.Nodes))
	gpus := make([][][]placed, len(spec.Nodes))
	for i, n := range spec.Nodes {
		nodes[n.Name] = i
		r := nodeRule{spec: n, capSMPct: 100}
		switch n.Mode {
		case cluster.ModeMPS:
			r.cap = n.ClientCap
			if r.cap == 0 {
				r.cap = n.Device.MaxMPSClients
			}
			if n.MPSActiveThreadPct > 0 && n.MPSActiveThreadPct < 100 {
				r.capSMPct = n.MPSActiveThreadPct
			}
		case cluster.ModeMIG:
			r.cap = n.MIGInstances
			if r.cap == 0 {
				r.cap = n.Device.MaxMIGInstances
			}
			r.instMiB = n.Device.MemoryMiB / int64(r.cap)
		case cluster.ModeTimeSlice:
			r.cap = n.TimeSliceCap
			if r.cap == 0 {
				r.cap = defaultTimeSliceCap
			}
		}
		rules[i] = r
		gpus[i] = make([][]placed, n.GPUs)
	}

	type gangInfo struct {
		sub     cluster.Submission
		members map[string]*profile.TaskProfile
		iters   map[string]int
		ends    int // times the gang ended, in Jobs or Failed
		lastEnd simtime.Time
	}
	gangs := map[string]*gangInfo{}
	for _, s := range subs {
		gi := &gangInfo{sub: s, members: map[string]*profile.TaskProfile{}, iters: map[string]int{}}
		for _, w := range s.Gang.Members {
			if len(w.Tasks) != 1 {
				fail("gang %s member %s: checker handles single-task workflows only", s.Gang.Name, w.Name)
				return bad
			}
			p, err := store.Lookup(w.Tasks[0].Benchmark, w.Tasks[0].Size)
			if err != nil {
				fail("gang %s member %s: %v", s.Gang.Name, w.Name, err)
				return bad
			}
			gi.members[w.Name] = p
			gi.iters[w.Name] = w.Tasks[0].Iterations
		}
		if gangs[s.Gang.Name] != nil {
			fail("gang name %s submitted twice", s.Gang.Name)
		}
		gangs[s.Gang.Name] = gi
	}

	live := func(n, g int, t simtime.Time) []placed {
		kept := gpus[n][g][:0]
		for _, p := range gpus[n][g] {
			if p.end > t {
				kept = append(kept, p)
			}
		}
		gpus[n][g] = kept
		return kept
	}

	ds, evs := out.Dispatches, out.Evictions
	di, ei := 0, 0
	var prev simtime.Time
	for di < len(ds) || ei < len(evs) {
		// The next instant either log reaches.
		t := simtime.Forever
		if di < len(ds) {
			t = ds[di].At
		}
		if ei < len(evs) && evs[ei].At < t {
			t = evs[ei].At
		}
		if t < prev {
			fail("log goes back in time to %v after %v", t, prev)
			return bad
		}
		prev = t
		// Eviction blocks at this instant, one per preempting commit.
		type block struct {
			preemptor string
			evs       []cluster.Eviction
			used      bool
		}
		var blocks []*block
		for ; ei < len(evs) && evs[ei].At == t; ei++ {
			if len(blocks) == 0 || blocks[len(blocks)-1].preemptor != evs[ei].Preemptor {
				blocks = append(blocks, &block{preemptor: evs[ei].Preemptor})
			}
			b := blocks[len(blocks)-1]
			b.evs = append(b.evs, evs[ei])
		}
		touched := map[[2]int]bool{}
		for di < len(ds) && ds[di].At == t {
			// One commit: consecutive dispatches of one gang.
			j := di
			for j < len(ds) && ds[j].At == t && ds[j].Gang == ds[di].Gang {
				j++
			}
			commit := ds[di:j]
			di = j
			gi := gangs[commit[0].Gang]
			if gi == nil {
				fail("dispatch of unknown gang %s", commit[0].Gang)
				continue
			}
			// Evictions this commit made, if its members do not all fit
			// as things stand: the first unused block it names whose
			// victims are resident now and each have a member on a GPU the
			// commit uses, split into one group per victim gang in
			// eviction order.
			var groups [][]cluster.Eviction
			victims := map[string]bool{}
			needs := !fitsAsIs(commit, gi.members, nodes, rules, live, t)
			for _, b := range blocks {
				if !needs || b.used || b.preemptor != commit[0].Gang || !victimsResident(b.evs, nodes, gpus, t) || !onCommitGPUs(b.evs, commit) {
					continue
				}
				b.used = true
				for i, e := range b.evs {
					if v := gangs[e.Gang]; v == nil || v.sub.Priority >= gi.sub.Priority {
						fail("gang %s evicted %s of priority not below its own", commit[0].Gang, e.Gang)
					}
					if i == 0 || e.Gang != b.evs[i-1].Gang {
						groups = append(groups, nil)
					}
					groups[len(groups)-1] = append(groups[len(groups)-1], e)
					victims[e.Gang] = true
				}
				break
			}
			seen := map[string]bool{}
			gi.lastEnd = 0
			for _, d := range commit {
				prof := gi.members[d.Workflow]
				n, ok := nodes[d.Node]
				if prof == nil || seen[d.Workflow] || !ok || d.GPU < 0 || d.GPU >= len(gpus[n]) {
					fail("gang %s: bad dispatch of %s to %s/%d", d.Gang, d.Workflow, d.Node, d.GPU)
					continue
				}
				seen[d.Workflow] = true
				if d.WaitedS < 0 {
					fail("gang %s dispatched %gs before it arrived", d.Gang, -d.WaitedS)
				}
				r := rules[n]
				member := placed{gang: d.Gang, workflow: d.Workflow, prof: prof}
				// The planner evicts for a member that fits nowhere, one
				// victim gang at a time until it fits on its GPU.
				for len(groups) > 0 && r.violation(append(live(n, d.GPU, t), member)) != "" {
					for _, e := range groups[0] {
						en := nodes[e.Node]
						res := gpus[en][e.GPU]
						for k := range res {
							if res[k].gang == e.Gang && res[k].workflow == e.Workflow {
								gpus[en][e.GPU] = append(res[:k], res[k+1:]...)
								break
							}
						}
					}
					groups = groups[1:]
				}
				durS := prof.DurationS*float64(gi.iters[d.Workflow]) + overhead*float64(d.Preemptions)/float64(len(gi.members))
				switch {
				case r.spec.Mode == cluster.ModeTimeSlice:
					durS *= float64(len(live(n, d.GPU, t)) + 1)
				case r.spec.Mode == cluster.ModeMPS && prof.AvgSMUtilPct > r.capSMPct:
					durS *= prof.AvgSMUtilPct / r.capSMPct
				}
				member.end = t.Add(simtime.FromSeconds(durS))
				gpus[n][d.GPU] = append(gpus[n][d.GPU], member)
				touched[[2]int{n, d.GPU}] = true
				if member.end > gi.lastEnd {
					gi.lastEnd = member.end
				}
			}
			if len(groups) > 0 {
				fail("gang %s evicted %d gangs it did not need at %v", commit[0].Gang, len(groups), t)
			}
			for n := range gpus {
				for g := range gpus[n] {
					for _, p := range live(n, g, t) {
						if victims[p.gang] {
							fail("gang %s only partly evicted at %v", p.gang, t)
						}
					}
				}
			}
			if len(seen) != len(gi.members) {
				fail("gang %s: %d of %d members dispatched at %v", commit[0].Gang, len(seen), len(gi.members), t)
			}
		}
		for _, b := range blocks {
			if !b.used {
				fail("evictions by %s at %v match no commit", b.preemptor, t)
			}
		}
		// State at the end of the instant: every GPU that gained a
		// resident must satisfy its node's rule.
		for ng := range touched {
			res := live(ng[0], ng[1], t)
			if msg := rules[ng[0]].violation(res); msg != "" {
				fail("%s GPU %d at %v: %s", rules[ng[0]].spec.Name, ng[1], t, msg)
			}
		}
	}

	for _, j := range out.Jobs {
		gi := gangs[j.Gang]
		if gi == nil {
			fail("job for unknown gang %s", j.Gang)
			continue
		}
		gi.ends++
		if got := simtime.Time(0).Add(simtime.FromSeconds(j.CompletionS)); absDiff(got, gi.lastEnd) > simtime.Microsecond {
			fail("gang %s completes at %v, its last placement ends at %v", j.Gang, got, gi.lastEnd)
		}
	}
	for _, f := range out.Failed {
		if gi := gangs[f.Gang]; gi != nil {
			gi.ends++
		} else {
			fail("failure of unknown gang %s", f.Gang)
		}
	}
	for name, gi := range gangs {
		if gi.ends != 1 {
			fail("gang %s ends %d times", name, gi.ends)
		}
	}
	return bad
}

// violation reports how residents break the node's rule, or "".
func (r nodeRule) violation(res []placed) string {
	if len(res) > r.cap {
		return fmt.Sprintf("%d residents over the cap of %d", len(res), r.cap)
	}
	switch r.spec.Mode {
	case cluster.ModeMIG:
		for _, p := range res {
			if p.prof.MaxMemMiB > r.instMiB {
				return fmt.Sprintf("%s needs %d MiB, an instance has %d", p.workflow, p.prof.MaxMemMiB, r.instMiB)
			}
		}
	case cluster.ModeTimeSlice:
		if e := interference.Predict(r.spec.Device, profiles(res, 100)); e.Has(interference.Capacity) {
			return e.String()
		}
	default:
		if e := interference.Predict(r.spec.Device, profiles(res, r.capSMPct)); e.Interferes {
			return e.String()
		}
	}
	return ""
}

// profiles lists the residents' profiles, each SM share clamped to the
// node's active-thread cap.
func profiles(res []placed, capSMPct float64) []*profile.TaskProfile {
	out := make([]*profile.TaskProfile, len(res))
	for i, p := range res {
		out[i] = p.prof
		if p.prof.AvgSMUtilPct > capSMPct {
			c := *p.prof
			c.AvgSMUtilPct = capSMPct
			out[i] = &c
		}
	}
	return out
}

func victimsResident(evs []cluster.Eviction, nodes map[string]int, gpus [][][]placed, t simtime.Time) bool {
	for _, e := range evs {
		n, ok := nodes[e.Node]
		if !ok || e.GPU < 0 || e.GPU >= len(gpus[n]) {
			return false
		}
		found := false
		for _, p := range gpus[n][e.GPU] {
			if p.gang == e.Gang && p.workflow == e.Workflow && p.end > t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// fitsAsIs reports whether the commit's members, placed in order, all
// fit their GPUs without evicting anyone.
func fitsAsIs(commit []cluster.Dispatch, members map[string]*profile.TaskProfile, nodes map[string]int,
	rules []nodeRule, live func(n, g int, t simtime.Time) []placed, t simtime.Time) bool {
	trial := map[[2]int][]placed{}
	for _, d := range commit {
		n, ok := nodes[d.Node]
		prof := members[d.Workflow]
		if !ok || prof == nil || d.GPU < 0 || d.GPU >= rules[n].spec.GPUs {
			continue // flagged when the commit is applied
		}
		key := [2]int{n, d.GPU}
		if _, seen := trial[key]; !seen {
			trial[key] = append([]placed(nil), live(n, d.GPU, t)...)
		}
		trial[key] = append(trial[key], placed{workflow: d.Workflow, prof: prof})
		if rules[n].violation(trial[key]) != "" {
			return false
		}
	}
	return true
}

// onCommitGPUs reports whether every victim gang in evs lost a member
// on a GPU one of the commit's dispatches uses: the planner evicts only
// to make room on the GPU a member then takes.
func onCommitGPUs(evs []cluster.Eviction, commit []cluster.Dispatch) bool {
	hit := map[string]bool{}
	for _, e := range evs {
		for _, d := range commit {
			if d.Node == e.Node && d.GPU == e.GPU {
				hit[e.Gang] = true
			}
		}
	}
	for _, e := range evs {
		if !hit[e.Gang] {
			return false
		}
	}
	return true
}

func absDiff(a, b simtime.Time) simtime.Duration {
	if a > b {
		return simtime.Duration(a - b)
	}
	return simtime.Duration(b - a)
}
