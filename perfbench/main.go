// Command perfbench drives gpushare from outside and reports end-to-end
// and per-layer metrics for four workloads; see README.md. Run it through
// run.sh, which builds gpusched and this command from the checkout:
//
//	bash perfbench/run.sh --workload fleet-scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"gpushare/internal/experiments"
)

// metricDef is one reported metric. The lists below are the ones
// BENCHMARK.json declares (TestBenchmarkJSONMatches keeps them equal).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"request_p50_ms", "ms", "lower", 0.25},
}

// perLayer lists every per-layer metric; a workload that does not reach
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"gpusched.self_us_per_arrival", "us", "lower", 0},
	{"gpusched.response_bytes_per_arrival", "B", "lower", 0},
	{"gpusched.state_ms", "ms", "lower", 0},
	{"gpusched.state_kib", "KiB", "lower", 0},
	{"gpusched.scrape_ms", "ms", "lower", 0},
	{"gpusched.ingest_ms.p99", "ms", "lower", 0},
	{"obs.flight_records_per_arrival", "count", "lower", 0},
	{"obs.self_us_per_arrival", "us", "lower", 0},
	{"core.self_us_per_arrival", "us", "lower", 0},
	{"core.probes_per_arrival", "count", "lower", 0},
	{"core.waits_per_arrival", "count", "lower", 0},
	{"core.retirements_per_arrival", "count", "lower", 0},
	{"core.ns_per_probe", "ns", "lower", 0},
	{"core.ingest_us.p50", "us", "lower", 0},
	{"core.ingest_us.p99", "us", "lower", 0},
	{"interference.self_us_per_op", "us", "lower", 0},
	{"eventq.self_us_per_op", "us", "lower", 0},
	{"cluster.self_us_per_submission", "us", "lower", 0},
	{"cluster.probes_per_submission", "count", "lower", 0},
	{"cluster.probes_per_dispatch", "count", "lower", 0},
	{"cluster.holds_per_submission", "count", "lower", 0},
	{"cluster.whatifs_per_submission", "count", "lower", 0},
	{"cluster.plan_s", "s", "lower", 0},
	{"cluster.evictions_per_submission", "count", "lower", 0},
	{"cluster.kept_dispatch_ratio", "ratio", "higher", 0},
	{"cluster.lost_s_per_submission", "s", "lower", 0},
	{"cluster.sim_mean_wait_s", "s", "lower", 0},
	{"cluster.sim_mean_job_s", "s", "lower", 0},
	{"experiments.sim_mps_speedup", "x", "higher", 0},
	{"experiments.sim_mps_energy_gain", "x", "higher", 0},
	{"gpusim.runs_per_pass", "count", "lower", 0},
	{"gpusim.events_per_pass", "count", "lower", 0},
	{"gpusim.self_ms_per_pass", "ms", "lower", 0},
	{"gpusim.ns_per_event", "ns", "lower", 0},
	{"profile.self_ms_per_pass", "ms", "lower", 0},
	{"parallel.cache_hits_per_pass", "count", "higher", 0},
	{"parallel.cache_misses_per_pass", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_self_us_per_op", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// init adds one experiments.<id>_ms metric per registered experiment.
func init() {
	for _, e := range experiments.All() {
		perLayer = append(perLayer, metricDef{"experiments." + e.ID + "_ms", "ms", "lower", 0})
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	gpusched string // built gpusched binary (serve-ingest)
	out      string // directory for trace files and server logs
}

// workload is one benchmark workload. setup builds everything the
// timed rounds need and returns the part of its time that is the
// program's set-up, or 0 when the workload sets up in every round and
// records that in the round's accum instead; round runs one whole
// round, timing only the calls into the program through acc, and checks
// the outputs afterwards.
type workload interface {
	setup(cfg *config) (float64, error)
	round(acc *accum) error
	// usage reports the CPU seconds and peak RSS of the process doing
	// the work.
	usage() (cpuS, rssMiB float64, err error)
	close()
	// layers adds the per-layer metrics of a traced phase.
	layers(acc *accum, m map[string]float64)
}

var workloads = map[string]func() workload{
	"serve-ingest":  func() workload { return &serveIngest{} },
	"fleet-scan":    func() workload { return &fleetScan{} },
	"cluster-gangs": func() workload { return &clusterGangs{} },
	"paper-figures": func() workload { return &paperFigures{} },
}

// A run sets up at least setupRepeats times, and more while the set-ups
// so far took under setupSeconds in all; setup_s is their median.
const (
	setupRepeats = 3
	setupSeconds = 2.0
)

func main() {
	var cfg config
	var steady int
	flag.StringVar(&cfg.workload, "workload", "", "serve-ingest | fleet-scan | cluster-gangs | paper-figures")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.gpusched, "gpusched", "", "gpusched binary (set by run.sh)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files and logs")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run two alternating sets of this many runs each")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok && cfg.workload != "all" {
		fatalf("unknown -workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	// One P. For serve-ingest this process is only the client, and a
	// second thread of its own would compete with the server for the
	// host's CPUs. The in-process workloads run serial code at the
	// program's defaults; with a second P the collector's work on the
	// other vCPU made their rates vary by 15% between runs on a shared
	// 2-vCPU host, against 1% with one.
	runtime.GOMAXPROCS(1)
	if steady > 0 {
		if err := runSteady(&cfg, steady); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if cfg.workload == "all" {
		fatalf("-workload all is for -steady only")
	}
	res, err := runWorkload(&cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printResult(cfg.workload, res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, then runs whole rounds until
// cfg.seconds have passed. Rates and CPU per op are medians over rounds,
// so a burst of load from outside the benchmark moves them less than it
// moves a run-long mean. A traced run spends the first half untraced and
// the second half traced, so it can state its own overhead.
func runWorkload(cfg *config) (*result, error) {
	w := workloads[cfg.workload]()
	var setups []float64
	for total := 0.0; len(setups) < setupRepeats || total < setupSeconds; {
		if len(setups) > 0 {
			w.close()
			w = workloads[cfg.workload]()
		}
		s, err := w.setup(cfg)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if s == 0 {
			break
		}
		setups = append(setups, s)
		total += s
	}
	defer w.close()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	acc := newAccum(w)
	for start := time.Now(); time.Since(start) < budget; {
		if err := acc.doRound(w); err != nil {
			return nil, err
		}
	}
	setups = append(setups, acc.setups...)
	res := &result{Correct: acc.wrong == 0, Attempted: acc.ops, Failed: acc.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		plain := acc.cpu / float64(acc.ops)
		tacc := newAccum(w)
		tacc.traced = true
		_, remote := w.(*serveIngest)
		tacc.inProcess = !remote
		for start := time.Now(); time.Since(start) < budget; {
			if err := tacc.doRound(w); err != nil {
				return nil, err
			}
		}
		m := map[string]float64{}
		tacc.runtimeLayers(m)
		w.layers(tacc, m)
		m["bench.trace_overhead_pct"] = 100 * (tacc.cpu/float64(tacc.ops)/plain - 1)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
		res.Attempted += tacc.ops
		res.Failed += tacc.failed
		res.Correct = res.Correct && tacc.wrong == 0
		acc.errors = append(acc.errors, tacc.errors...)
		if err := writeTrace(cfg, res, tacc); err != nil {
			return nil, err
		}
	} else {
		vals := map[string]float64{
			"setup_s":        median(setups),
			"ops_per_s":      median(acc.roundRate),
			"cpu_us_per_op":  1e6 * median(acc.roundCPU),
			"peak_rss_mib":   median(acc.roundRSS),
			"request_p50_ms": median(acc.latMS),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	if acc.setupChecked > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: set-up arrivals: %d of %d failed the check (not ops, not counted)\n",
			acc.setupFailed, acc.setupChecked)
	}
	for _, e := range acc.errors {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	return res, nil
}

func printResult(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d (GOMAXPROCS=%d, %s)\n",
		name, res.Correct, res.Attempted, res.Failed, runtime.GOMAXPROCS(0), runtime.Version())
	for _, k := range keys {
		fmt.Printf("  %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// median of a non-empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencyQuantiles returns the median and the highest percentile, at
// most top, with at least ten samples beyond it; below forty samples
// that tail is no tail, and the median stands for both.
func latencyQuantiles(ms []float64, top float64) (p50, tail float64) {
	p50 = median(ms)
	n := float64(len(ms))
	if n < 40 {
		return p50, p50
	}
	p := math.Min(top, 1-10/n)
	return p50, quantile(ms, p)
}
