package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// the ones the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		g := doc.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		g := doc.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, g, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g", q1, q3)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if p50, tail := latencyQuantiles(xs, 0.99); p50 != 15.5 || tail != p50 {
		t.Fatalf("under 40 samples: %g, %g", p50, tail)
	}
	for i := 31; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	// Ten samples beyond the 90th percentile of 100.
	if _, tail := latencyQuantiles(xs, 0.99); math.Abs(tail-90.1) > 1e-9 {
		t.Fatalf("tail of 100 samples = %g", tail)
	}
	for i := 101; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if _, tail := latencyQuantiles(xs, 0.95); math.Abs(tail-950.05) > 1e-9 {
		t.Fatalf("95th percentile of 1000 samples = %g", tail)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack  []string
		server bool
		want   string
	}{
		{[]string{"runtime.memmove", "gpushare/internal/interference.(*Aggregate).Admit", "gpushare/internal/core.(*onlineShard).scan"}, false, "interference"},
		{[]string{"encoding/json.Marshal", "main.(*streamServer).handleIngest"}, true, "gpusched"},
		{[]string{"gpushare/perfbench/check.(*Core).Check", "main.main"}, false, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, false, "runtime"},
	} {
		if got := layerOf(c.stack, c.server); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ns int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
		ns += s.cpuNS
	}
	if ns <= 0 || x == 0 {
		t.Fatalf("profile of a busy loop holds %d ns", ns)
	}
}
