package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// accum collects one phase of a run: the timed calls, their latencies,
// the check results and, in a traced phase, spans and CPU profiles.
type accum struct {
	w      workload
	traced bool

	ops, failed int64
	wall, cpu   float64 // seconds inside timed sections
	latMS       []float64
	// Per round: ops per timed second, timed CPU seconds per op and the
	// working process's peak RSS.
	roundRate, roundCPU, roundRSS []float64
	// Set-up times of workloads that set up in every round.
	setups []float64
	// Arrivals sent during set-up are checked too, but are not ops.
	setupChecked, setupFailed int64
	errors                    []string // the first messages of failed ops
	wrong                     int      // discrepancies that make the run incorrect

	// Traced phase only.
	spans      map[string][]float64 // span name -> durations in ms
	selfNS     map[string]float64   // layer -> profiled self time
	mallocs    uint64
	allocBytes uint64
	counts     map[string]float64 // layer counters the workload adds up
	inProcess  bool               // profile this process around timed sections
	profBuf    bytes.Buffer
}

func newAccum(w workload) *accum {
	return &accum{w: w, spans: map[string][]float64{}, selfNS: map[string]float64{}, counts: map[string]float64{}}
}

// doRound runs one round. The forced collection keeps garbage from the
// previous round's checks out of this round's timed sections.
func (a *accum) doRound(w workload) error {
	runtime.GC()
	ops, wall, cpu := a.ops, a.wall, a.cpu
	if err := w.round(a); err != nil {
		return err
	}
	n := float64(a.ops - ops)
	a.roundRate = append(a.roundRate, n/(a.wall-wall))
	a.roundCPU = append(a.roundCPU, (a.cpu-cpu)/n)
	_, rss, err := w.usage()
	a.roundRSS = append(a.roundRSS, rss)
	return err
}

// maxErrors is how many messages of failed ops a run keeps to print.
const maxErrors = 5

// addFailures counts failed ops and keeps the first messages.
func (a *accum) addFailures(n int64, msgs []string) {
	a.failed += n
	if room := maxErrors - len(a.errors); room > 0 {
		a.errors = append(a.errors, msgs[:min(room, len(msgs))]...)
	}
}

// timed runs fn as a measured section: its wall time and the working
// process's CPU time count toward the run's metrics.
func (a *accum) timed(fn func() error) error {
	var ms0 runtime.MemStats
	if a.traced && a.inProcess {
		runtime.ReadMemStats(&ms0)
		a.profBuf.Reset()
		if err := pprof.StartCPUProfile(&a.profBuf); err != nil {
			return err
		}
	}
	cpu0, _, err := a.w.usage()
	if err != nil {
		return err
	}
	start := time.Now()
	ferr := fn()
	wall := time.Since(start).Seconds()
	cpu1, _, err := a.w.usage()
	if err != nil {
		return err
	}
	if a.traced && a.inProcess {
		pprof.StopCPUProfile()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		a.mallocs += ms1.Mallocs - ms0.Mallocs
		a.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		if err := a.addProfile(a.profBuf.Bytes(), false); err != nil {
			return err
		}
	}
	a.wall += wall
	a.cpu += cpu1 - cpu0
	return ferr
}

// span records one call into a layer, in a traced phase.
func (a *accum) span(name string, d time.Duration) {
	if a.traced {
		a.spans[name] = append(a.spans[name], float64(d)/1e6)
	}
}

// addProfile charges each sample's CPU time to a layer.
func (a *accum) addProfile(data []byte, server bool) error {
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		a.selfNS[layerOf(s.stack, server)] += float64(s.cpuNS)
	}
	return nil
}

// selfPerOp is a layer's profiled self time per op in microseconds.
func (a *accum) selfPerOp(layer string) float64 {
	return a.selfNS[layer] / 1e3 / float64(a.ops)
}

// runtimeLayers adds the runtime layer's metrics.
func (a *accum) runtimeLayers(m map[string]float64) {
	if a.inProcess {
		m["runtime.alloc_bytes_per_op"] = float64(a.allocBytes) / float64(a.ops)
		m["runtime.allocs_per_op"] = float64(a.mallocs) / float64(a.ops)
	}
	m["runtime.gc_self_us_per_op"] = a.selfPerOp("runtime")
}

// spanQuantile is a span's p-quantile in ms (0 without samples).
func (a *accum) spanQuantile(name string, p float64) float64 {
	if len(a.spans[name]) == 0 {
		return 0
	}
	return quantile(a.spans[name], p)
}

// selfUsage reads this process's CPU time and peak RSS.
func selfUsage() (cpuS, rssMiB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024, nil
}

// writeTrace saves a traced run's metrics, span summaries and profiled
// self time per layer next to the build.
func writeTrace(cfg *config, res *result, a *accum) error {
	type spanSum struct {
		Count   int     `json:"count"`
		P50MS   float64 `json:"p50_ms"`
		P99MS   float64 `json:"p99_ms"`
		TotalMS float64 `json:"total_ms"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Metrics  map[string]metric  `json:"metrics"`
		Spans    map[string]spanSum `json:"spans"`
		SelfMS   map[string]float64 `json:"profiled_self_ms"`
	}{cfg.workload, cfg.seed, res.Metrics, map[string]spanSum{}, map[string]float64{}}
	names := make([]string, 0, len(a.spans))
	for n := range a.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total := 0.0
		for _, d := range a.spans[n] {
			total += d
		}
		_, p99 := latencyQuantiles(a.spans[n], 0.99)
		doc.Spans[n] = spanSum{len(a.spans[n]), median(a.spans[n]), p99, total}
	}
	for l, ns := range a.selfNS {
		doc.SelfMS[l] = ns / 1e6
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	fmt.Printf("traced run written to %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
