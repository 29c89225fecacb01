package check

import (
	"fmt"

	"gpushare/internal/experiments"
)

// maxPaperGain is the top of the paper's reported MPS throughput gains
// for Figure 2 ("0%–147%").
const maxPaperGain = 1.47

// Figure2 checks the Figure 2 claims the reproduction meets
// (EXPERIMENTS.md): in every Table III combination MPS throughput is at
// least sequential and at least time-slicing, and the gain stays within
// the paper's 0–147%.
func Figure2(results []experiments.ComboResult) []string {
	var bad []string
	if len(results) != 10 {
		bad = append(bad, fmt.Sprintf("Figure 2 has %d combinations, want 10", len(results)))
	}
	for _, r := range results {
		mps, ts := r.MPS.Throughput, r.TimeSlice.Throughput
		switch {
		case mps < 1:
			bad = append(bad, fmt.Sprintf("combo %d: MPS throughput %.3f below sequential", r.Combo.ID, mps))
		case mps < ts:
			bad = append(bad, fmt.Sprintf("combo %d: MPS throughput %.3f below time-slicing %.3f", r.Combo.ID, mps, ts))
		case mps-1 > maxPaperGain:
			bad = append(bad, fmt.Sprintf("combo %d: MPS gain %.0f%% beyond the paper's %.0f%%", r.Combo.ID, 100*(mps-1), 100*maxPaperGain))
		}
	}
	return bad
}
