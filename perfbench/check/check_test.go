package check

import (
	"strings"
	"testing"

	"gpushare/internal/cluster"
	"gpushare/internal/experiments"
	"gpushare/internal/gpu"
	"gpushare/internal/metrics"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

var dev = gpu.MustLookup("A100X")

func prof(name string, sm, durS float64) *profile.TaskProfile {
	return &profile.TaskProfile{Workload: name, Size: "1x", Device: dev.Name, DurationS: durS, MaxMemMiB: 4096, AvgSMUtilPct: sm, AvgBWUtilPct: 10}
}

func sec(s float64) simtime.Time { return simtime.Time(0).Add(simtime.FromSeconds(s)) }

type step struct {
	a  Arrival
	ev Event
}

func runCore(t *testing.T, gpus int, steps []step) [][]string {
	t.Helper()
	c := NewCore(dev, gpus, dev.MaxMPSClients)
	var out [][]string
	for _, s := range steps {
		bad, err := c.Check(s.a, s.ev)
		if err != nil {
			t.Fatalf("%s: %v", s.a.Name, err)
		}
		out = append(out, bad)
	}
	return out
}

func TestCoreCorrectLogPasses(t *testing.T) {
	p40 := prof("p40", 40, 100)
	steps := []step{
		{Arrival{sec(0), "a", p40, 1}, Event{sec(0), "a", 0, 0, nil}},
		{Arrival{sec(1), "b", p40, 1}, Event{sec(1), "b", 0, 0, []string{"a"}}},
		// GPU 0 would reach 120% SM, so b2 goes to GPU 1.
		{Arrival{sec(2), "c", p40, 1}, Event{sec(2), "c", 1, 0, nil}},
		// a ends at 100 s: GPU 0 has room again.
		{Arrival{sec(150), "d", p40, 1}, Event{sec(150), "d", 0, 0, nil}},
	}
	for i, bad := range runCore(t, 2, steps) {
		if len(bad) > 0 {
			t.Errorf("step %d flagged: %v", i, bad)
		}
	}
}

// TestCoreFlagsClockFault replays the three-arrival reproduction of the
// online dispatcher's clock fault: C is placed while A still runs.
func TestCoreFlagsClockFault(t *testing.T) {
	a, b, c := prof("A", 60, 100), prof("B", 50, 10), prof("C", 45, 10)
	steps := []step{
		{Arrival{sec(0), "A", a, 1}, Event{sec(0), "A", 0, 0, nil}},
		{Arrival{sec(1), "B", b, 1}, Event{sec(100), "B", 0, 99, nil}},
		{Arrival{sec(2), "C", c, 1}, Event{sec(2), "C", 0, 0, []string{"B"}}},
	}
	got := runCore(t, 1, steps)
	if len(got[0]) > 0 || len(got[1]) > 0 {
		t.Errorf("A or B flagged: %v", got[:2])
	}
	if len(got[2]) == 0 {
		t.Fatal("C placed beside A passed the check")
	}
	if !strings.Contains(strings.Join(got[2], "\n"), "breaks the rule") {
		t.Errorf("C's violations do not name the rule: %v", got[2])
	}
}

func TestCoreFlagsSkippedLowerGPU(t *testing.T) {
	p40 := prof("p40", 40, 100)
	got := runCore(t, 2, []step{{Arrival{sec(0), "a", p40, 1}, Event{sec(0), "a", 1, 0, nil}}})
	if len(got[0]) == 0 {
		t.Fatal("placement past an empty GPU 0 passed")
	}
}

// TestCoreCloneIsIndependent checks one resumed log twice from a clone:
// what the first pass records must not leak into the second.
func TestCoreCloneIsIndependent(t *testing.T) {
	p60 := prof("p60", 60, 100)
	c := NewCore(dev, 2, dev.MaxMPSClients)
	if bad, err := c.Check(Arrival{sec(0), "a", p60, 1}, Event{sec(0), "a", 0, 0, nil}); err != nil || len(bad) > 0 {
		t.Fatalf("a: %v %v", bad, err)
	}
	// b cannot join a (120% SM), so GPU 1 is right in every pass.
	for pass := 0; pass < 2; pass++ {
		bad, err := c.Clone().Check(Arrival{sec(1), "b", p60, 1}, Event{sec(1), "b", 1, 0, nil})
		if err != nil || len(bad) > 0 {
			t.Fatalf("pass %d: %v %v", pass, bad, err)
		}
	}
}

func TestCoreRejectsMalformedLog(t *testing.T) {
	c := NewCore(dev, 1, dev.MaxMPSClients)
	p := prof("p", 10, 1)
	if _, err := c.Check(Arrival{0, "a", p, 1}, Event{0, "a", 3, 0, nil}); err == nil {
		t.Error("GPU out of range accepted")
	}
	if _, err := c.Check(Arrival{0, "a", p, 1}, Event{0, "b", 0, 0, nil}); err == nil {
		t.Error("event for another workflow accepted")
	}
}

// clusterCase is a two-GPU MPS node, a batch gang V and a high-priority
// gang X that evicts V.
func clusterCase(t *testing.T) (cluster.Spec, []cluster.Submission, *profile.Store) {
	t.Helper()
	store := profile.NewStore()
	for _, p := range []*profile.TaskProfile{prof("p60", 60, 100), prof("p30", 30, 50)} {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	spec := cluster.Spec{
		Nodes:      []cluster.NodeSpec{{Name: "n0", Device: dev, GPUs: 2, Mode: cluster.ModeMPS}},
		Tenants:    []cluster.TenantSpec{{Name: "t"}},
		Preemption: true,
	}
	wf := func(name, bench string) workflow.Workflow {
		return workflow.Workflow{Name: name, Tasks: []workflow.Task{{Benchmark: bench, Size: "1x", Iterations: 1}}}
	}
	subs := []cluster.Submission{
		{At: 0, Tenant: "t", Priority: 0, Gang: workflow.Single(wf("v", "p60"))},
		{At: 0, Tenant: "t", Priority: 1, Gang: workflow.Single(wf("x", "p60"))},
		{At: 0, Tenant: "t", Priority: 0, Gang: workflow.Gang{Name: "g", Members: []workflow.Workflow{wf("g1", "p30"), wf("g2", "p30")}}},
	}
	return spec, subs, store
}

func TestClusterSameInstantEvictAndReplacePasses(t *testing.T) {
	spec, subs, store := clusterCase(t)
	out := &cluster.Outcome{
		Dispatches: []cluster.Dispatch{
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 0},
			{At: 0, Tenant: "t", Gang: "x", Workflow: "x", Node: "n0", GPU: 0},
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 1, Preemptions: 1},
			{At: sec(100), Tenant: "t", Gang: "g", Workflow: "g1", Node: "n0", GPU: 0, WaitedS: 100},
			{At: sec(100), Tenant: "t", Gang: "g", Workflow: "g2", Node: "n0", GPU: 0, WaitedS: 100},
		},
		Evictions: []cluster.Eviction{
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 0, Preemptor: "x", OverheadS: 10},
		},
		Jobs: []cluster.JobSummary{
			{Tenant: "t", Gang: "x", CompletionS: 100, MakespanS: 100},
			{Tenant: "t", Gang: "v", CompletionS: 110, MakespanS: 110, Preemptions: 1},
			{Tenant: "t", Gang: "g", CompletionS: 150, MakespanS: 150, WaitedS: 100},
		},
	}
	if bad := Cluster(spec, subs, store, out); len(bad) > 0 {
		t.Fatalf("valid plan flagged: %v", bad)
	}
}

func TestClusterFlagsSplitGang(t *testing.T) {
	spec, subs, store := clusterCase(t)
	out := &cluster.Outcome{
		Dispatches: []cluster.Dispatch{
			{At: 0, Tenant: "t", Gang: "x", Workflow: "x", Node: "n0", GPU: 0},
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 1},
			{At: sec(100), Tenant: "t", Gang: "g", Workflow: "g1", Node: "n0", GPU: 0, WaitedS: 100},
			{At: sec(100.5), Tenant: "t", Gang: "g", Workflow: "g2", Node: "n0", GPU: 1, WaitedS: 100.5},
		},
		Jobs: []cluster.JobSummary{
			{Tenant: "t", Gang: "x", CompletionS: 100},
			{Tenant: "t", Gang: "v", CompletionS: 100},
			{Tenant: "t", Gang: "g", CompletionS: 150.5},
		},
	}
	bad := Cluster(spec, subs, store, out)
	if !strings.Contains(strings.Join(bad, "\n"), "1 of 2 members") {
		t.Fatalf("split gang not flagged: %v", bad)
	}
}

func TestClusterFlagsEvictionOfEqualPriority(t *testing.T) {
	spec, subs, store := clusterCase(t)
	subs[1].Priority = 0
	out := &cluster.Outcome{
		Dispatches: []cluster.Dispatch{
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 0},
			{At: 0, Tenant: "t", Gang: "x", Workflow: "x", Node: "n0", GPU: 0},
			{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 1, Preemptions: 1},
		},
		Evictions: []cluster.Eviction{{At: 0, Tenant: "t", Gang: "v", Workflow: "v", Node: "n0", GPU: 0, Preemptor: "x"}},
		Jobs:      []cluster.JobSummary{{Gang: "x", CompletionS: 100}, {Gang: "v", CompletionS: 110}},
		Failed:    []cluster.FailedJob{{Gang: "g"}},
	}
	if bad := Cluster(spec, subs, store, out); !strings.Contains(strings.Join(bad, "\n"), "priority not below") {
		t.Fatalf("equal-priority eviction not flagged: %v", bad)
	}
}

func TestFigure2(t *testing.T) {
	rows := make([]experiments.ComboResult, 10)
	for i := range rows {
		rows[i].Combo.ID = i + 1
		rows[i].MPS = metrics.Relative{Throughput: 1.5}
		rows[i].TimeSlice = metrics.Relative{Throughput: 1.2}
	}
	if bad := Figure2(rows); len(bad) > 0 {
		t.Fatalf("paper-shaped rows flagged: %v", bad)
	}
	rows[3].TimeSlice.Throughput = 1.6
	rows[7].MPS.Throughput = 2.6
	if bad := Figure2(rows); len(bad) != 2 {
		t.Fatalf("want 2 violations, got %v", bad)
	}
}
