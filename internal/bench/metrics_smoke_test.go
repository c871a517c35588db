package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// parsePrometheusText is a minimal exposition-format parser: it checks
// every line is a comment or a `name{labels} value` sample with a numeric
// value, and returns the set of sample names (label-stripped, histogram
// suffixes resolved to their family).
func parsePrometheusText(t *testing.T, text string) map[string]int {
	t.Helper()
	names := make(map[string]int)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: non-numeric value in %q: %v", ln+1, line, err)
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
		}
		names[name]++
	}
	return names
}

func TestMetricsSmokeEmitsCoreCounters(t *testing.T) {
	var sb strings.Builder
	if err := MetricsSmoke(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	names := parsePrometheusText(t, out)

	// The acceptance set: run latency, plan-cache hit rate, fallbacks,
	// workpool utilization — plus the families behind them.
	for _, want := range []string{
		"featgraph_kernel_runs_total",
		"featgraph_kernel_run_seconds_bucket",
		"featgraph_kernel_run_seconds_sum",
		"featgraph_kernel_run_seconds_count",
		"featgraph_kernel_edges_processed_total",
		"featgraph_kernel_fallbacks_total",
		"featgraph_plancache_hits_total",
		"featgraph_plancache_misses_total",
		"featgraph_workpool_utilization_ratio",
		"featgraph_workpool_phases_total",
		"featgraph_cudasim_launches_total",
	} {
		if names[want] == 0 {
			t.Errorf("snapshot missing %s\n%s", want, out)
		}
	}

	// The smoke workload guarantees traffic on the headline series.
	for _, positive := range []string{
		`featgraph_plancache_hits_total`,
		`featgraph_kernel_fallbacks_total{kernel="spmm",stage="build"}`,
	} {
		if !containsPositiveSample(out, positive) {
			t.Errorf("series %s not positive after smoke workload\n%s", positive, out)
		}
	}
}

// containsPositiveSample reports whether the exposition text has a sample
// line for series (exact name{labels} match) with a value > 0.
func containsPositiveSample(text, series string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err == nil && v > 0 {
			return true
		}
	}
	return false
}
