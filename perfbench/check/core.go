// Package check verifies the program's placement decisions against the
// paper's admission rule (§IV-B) without using the dispatchers' code:
// residents are replayed from the dispatch log and the profile store,
// and every candidate group is judged by interference.Predict.
package check

import (
	"fmt"
	"sort"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
)

// Arrival is one submitted single-task workflow as the benchmark sent it.
type Arrival struct {
	At         simtime.Time
	Name       string
	Profile    *profile.TaskProfile
	Iterations int
}

// Duration is the workflow's predicted run time: the profile's solo
// duration times the iteration count.
func (a Arrival) Duration() simtime.Duration {
	return simtime.FromSeconds(a.Profile.DurationS * float64(a.Iterations))
}

// Event is one dispatch decision as the program reported it.
type Event struct {
	At               simtime.Time
	Workflow         string
	GPU              int
	WaitedS          float64
	RunningAlongside []string
}

// entry is one replayed placement on a GPU.
type entry struct {
	name       string
	start, end simtime.Time
	prof       *profile.TaskProfile
}

// gpuLog is one GPU's replayed placements plus a memo of admission
// verdicts that holds while the running set stays the same.
type gpuLog struct {
	entries []entry
	version uint64
	// memoVersion/lo/hi say when memo is valid: same entries, and a
	// query instant in [lo, hi).
	memoVersion uint64
	lo, hi      simtime.Time
	memo        []int8 // by profile index: 0 unknown, 1 admits, 2 rejects
}

// Core replays an online dispatch log (core.Streamer or gpusched serve
// -stream) one arrival at a time. It keeps state across calls, so a
// stream can be checked in pieces.
type Core struct {
	device    gpu.DeviceSpec
	clientCap int
	gpus      []gpuLog
	lastAt    simtime.Time
	group     []*profile.TaskProfile
	scratch   []entry
	profIndex map[*profile.TaskProfile]int
}

// NewCore returns a checker for a fleet of gpus devices whose policy
// allows clientCap residents per GPU.
func NewCore(device gpu.DeviceSpec, gpus, clientCap int) *Core {
	c := &Core{device: device, clientCap: clientCap, gpus: make([]gpuLog, gpus), profIndex: map[*profile.TaskProfile]int{}}
	for i := range c.gpus {
		c.gpus[i].version = 1
	}
	return c
}

// Clone returns an independent copy of the checker's state, so a log
// that resumes from one snapshot several times can be checked each time.
func (c *Core) Clone() *Core {
	d := &Core{device: c.device, clientCap: c.clientCap, gpus: make([]gpuLog, len(c.gpus)), lastAt: c.lastAt, profIndex: map[*profile.TaskProfile]int{}}
	for i, gl := range c.gpus {
		d.gpus[i] = gpuLog{entries: append([]entry(nil), gl.entries...), version: gl.version}
	}
	for p, i := range c.profIndex {
		d.profIndex[p] = i
	}
	return d
}

// Check verifies the event the program returned for arrival a. It
// returns an error when the log itself is malformed (wrong workflow,
// GPU out of range, arrivals out of order) and otherwise the list of
// rule violations; an arrival with violations is a failed operation.
func (c *Core) Check(a Arrival, ev Event) ([]string, error) {
	if ev.Workflow != a.Name {
		return nil, fmt.Errorf("event for %q answers arrival %q", ev.Workflow, a.Name)
	}
	if ev.GPU < 0 || ev.GPU >= len(c.gpus) {
		return nil, fmt.Errorf("%s placed on GPU %d of a %d-GPU fleet", a.Name, ev.GPU, len(c.gpus))
	}
	if a.At < c.lastAt {
		return nil, fmt.Errorf("arrival %s at %v precedes %v", a.Name, a.At, c.lastAt)
	}
	c.lastAt = a.At

	var bad []string
	t := ev.At
	if ev.WaitedS < 0 || t < a.At {
		bad = append(bad, fmt.Sprintf("dispatched at %v before arrival %v (waited %gs)", t, a.At, ev.WaitedS))
	}
	gl := &c.gpus[ev.GPU]
	c.expire(gl)
	running := runningInto(nil, gl, t)
	if !sameNames(running, ev.RunningAlongside) {
		bad = append(bad, fmt.Sprintf("GPU %d at %v runs %v, log says %v", ev.GPU, t, names(running), ev.RunningAlongside))
	}
	if !c.admits(running, a.Profile) {
		bad = append(bad, fmt.Sprintf("GPU %d at %v: %v plus %s breaks the rule", ev.GPU, t, names(running), a.Name))
	}
	// Placements logged earlier may start during this one (they waited
	// past t); the group must still fit at each such start.
	end := t.Add(a.Duration())
	for _, e := range gl.entries {
		if e.start > t && e.start < end && !c.admits(runningInto(nil, gl, e.start), a.Profile) {
			bad = append(bad, fmt.Sprintf("GPU %d at %v: %s overlaps a group that breaks the rule", ev.GPU, e.start, a.Name))
			break
		}
	}
	pi, ok := c.profIndex[a.Profile]
	if !ok {
		pi = len(c.profIndex)
		c.profIndex[a.Profile] = pi
	}
	for h := 0; h < ev.GPU; h++ {
		if c.lowerAdmits(&c.gpus[h], t, a.Profile, pi) {
			bad = append(bad, fmt.Sprintf("GPU %d would have admitted %s at %v before GPU %d", h, a.Name, t, ev.GPU))
			break
		}
	}
	gl.entries = append(gl.entries, entry{name: a.Name, start: t, end: end, prof: a.Profile})
	gl.version++
	return bad, nil
}

// expire drops placements that ended by the latest arrival: a later
// arrival is never dispatched before it arrives, so they cannot overlap
// any dispatch still to come.
func (c *Core) expire(gl *gpuLog) {
	kept := gl.entries[:0]
	for _, e := range gl.entries {
		if e.end > c.lastAt {
			kept = append(kept, e)
		}
	}
	if len(kept) != len(gl.entries) {
		gl.entries = kept
		gl.version++
	}
}

// runningInto appends the placements running on gl at t to out, in log
// order.
func runningInto(out []entry, gl *gpuLog, t simtime.Time) []entry {
	for _, e := range gl.entries {
		if e.start <= t && t < e.end {
			out = append(out, e)
		}
	}
	return out
}

// admits applies the client cap and interference.Predict to running plus p.
func (c *Core) admits(running []entry, p *profile.TaskProfile) bool {
	if len(running)+1 > c.clientCap {
		return false
	}
	c.group = c.group[:0]
	for _, e := range running {
		c.group = append(c.group, e.prof)
	}
	c.group = append(c.group, p)
	return !interference.Predict(c.device, c.group).Interferes
}

// lowerAdmits answers admits for GPU gl at t, memoized by profile index
// pi while gl's running set cannot change.
func (c *Core) lowerAdmits(gl *gpuLog, t simtime.Time, p *profile.TaskProfile, pi int) bool {
	if gl.memoVersion != gl.version || t < gl.lo || t >= gl.hi {
		c.expire(gl)
		gl.memoVersion = gl.version
		gl.lo, gl.hi = simtime.Time(-1<<62), simtime.Forever
		for _, e := range gl.entries {
			for _, b := range [2]simtime.Time{e.start, e.end} {
				if b <= t && b > gl.lo {
					gl.lo = b
				}
				if b > t && b < gl.hi {
					gl.hi = b
				}
			}
		}
		clear(gl.memo)
	}
	if pi >= len(gl.memo) {
		gl.memo = append(gl.memo, make([]int8, pi+1-len(gl.memo))...)
	}
	if v := gl.memo[pi]; v != 0 {
		return v == 1
	}
	c.scratch = runningInto(c.scratch[:0], gl, t)
	v := c.admits(c.scratch, p)
	gl.memo[pi] = 2
	if v {
		gl.memo[pi] = 1
	}
	return v
}

func names(es []entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

func sameNames(es []entry, got []string) bool {
	if len(es) != len(got) {
		return false
	}
	want := names(es)
	g := append([]string(nil), got...)
	sort.Strings(want)
	sort.Strings(g)
	for i := range want {
		if want[i] != g[i] {
			return false
		}
	}
	return true
}
