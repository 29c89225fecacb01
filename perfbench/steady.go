package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// runSteady runs two sets of n runs of one build, alternating which set
// goes first, with seeds 1..n in both, and prints for every end-to-end
// metric each set's median and quartiles, the spread between the
// quartiles as a share of the median, and whether the second set's
// median is within the metric's bound of the first.
func runSteady(cfg *config, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"serve-ingest", "fleet-scan", "cluster-gangs", "paper-figures"}
	}
	fmt.Printf("steadiness: nproc=%d GOMAXPROCS=%d %s, %d runs per set, %gs each\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), n, cfg.seconds)
	for _, name := range names {
		var sets [2][]*result
		for i := 0; i < n; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				res, err := runChild(self, cfg, name, uint64(i+1))
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, i+1, err)
				}
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Printf("\n%s\n", name)
		for s, set := range sets {
			var att, fail int64
			for _, r := range set {
				att += r.Attempted
				fail += r.Failed
				if !r.Correct {
					fmt.Printf("  set %d: a run reported correct=false\n", s+1)
				}
			}
			fmt.Printf("  set %d: attempted %d, failed %d (share %.8f)\n", s+1, att, fail, float64(fail)/float64(att))
		}
		fmt.Printf("  %-16s %-5s %12s %12s %12s %8s | %12s %12s %12s %8s | %7s %s\n",
			"metric", "unit", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			var q [2][3]float64
			var spread [2]float64
			for s := range sets {
				var xs []float64
				for _, r := range sets[s] {
					xs = append(xs, r.Metrics[d.name].Value)
				}
				q1, q3 := quartiles(xs)
				q[s] = [3]float64{q1, median(xs), q3}
				spread[s] = (q3 - q1) / q[s][1]
			}
			worse := (q[1][1] - q[0][1]) / q[0][1]
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			if worse > d.bound {
				verdict = "DISAGREE"
			}
			switch widest := max(spread[0], spread[1]); {
			case widest > d.bound:
				verdict += ", SPREAD OVER BOUND"
			case widest > d.bound/3:
				verdict += ", spread over bound/3"
			}
			fmt.Printf("  %-16s %-5s %12.5g %12.5g %12.5g %8.4f | %12.5g %12.5g %12.5g %8.4f | %7.3f %s\n",
				d.name, d.unit, q[0][0], q[0][1], q[0][2], spread[0], q[1][0], q[1][1], q[1][2], spread[1], d.bound, verdict)
		}
	}
	return nil
}

// runChild runs one measured run as a separate process and parses the
// result from its last output line.
func runChild(self string, cfg *config, name string, seed uint64) (*result, error) {
	cmd := exec.Command(self, "-gpusched", cfg.gpusched, "-out", cfg.out, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0]
	}
	const groups = 4
	m := len(d) + 1
	var out [3]float64
	for i := 1; i < groups; i++ {
		j := i * m / groups
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*groups)
		out[i-1] = (d[j-1]*(groups-delta) + d[j]*delta) / groups
	}
	return out[0], out[2]
}
