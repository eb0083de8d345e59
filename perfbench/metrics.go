package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef is one reported metric: its name as printed and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. BENCHMARK.json lists the same names
// with their regression bounds.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_MB", "MB"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// audit-loopback: the workload's headline numbers, then the cost of
	// each layer call made from the benchmark, per audit.
	{"round_rtt_p50_us", "us"},
	{"core.round_rtt_p99_us", "us"},
	{"core.rounds_over_16ms_per_10k", "count"},
	{"core.tpa.request_us", "us"},
	{"core.pool.get_us", "us"},
	{"core.pool.dials_per_kaudit", "count"},
	{"core.verifier.run_us", "us"},
	{"core.verifier.rounds_us", "us"},
	{"crypt.attest_us", "us"},
	{"core.tpa.verify_us", "us"},
	{"wire.mux_frames_per_audit", "count"},
	{"core.prover.segment_requests_per_audit", "count"},
	{"core.prover.batch_requests_per_audit", "count"},
	{"store.preads_per_audit", "count"},

	// setup-store.
	{"encode_MBps", "MB/s"},
	{"extract_MBps", "MB/s"},
	{"por.encode_stream_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"store.open_ms", "ms"},
	{"por.extract_stream_ms", "ms"},
	{"store.preads_per_MiB", "count"},
	{"store.pread_KB_per_MiB", "KB"},
	{"proc.cpu_ms_per_MiB", "ms"},
	{"proc.alloc_MB_per_MiB", "MB"},

	// fleet-sim: per-run deltas of the program's own counters, which are
	// deterministic for one seed, and the process cost per audit.
	{"sim_audits_per_s", "1/s"},
	{"core.sched.verdicts.accepted", "count"},
	{"core.sched.verdicts.rejected", "count"},
	{"core.sched.verdicts.timeout", "count"},
	{"core.sched.verdicts.error", "count"},
	{"core.sched.retries", "count"},
	{"core.fleet.transitions", "count"},
	{"proc.cpu_ms_per_kaudit", "ms"},
	{"proc.alloc_MB_per_kaudit", "MB"},
	{"proc.gc_per_run", "count"},

	// Every workload: process cost per op, the tracing overhead, and the
	// CPU profile of the traced phase folded by package.
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_KB_per_op", "KB"},
	{"proc.gc_per_kop", "count"},
	{"trace.overhead_ops_per_s", "1/s"},
	{"cpu_share.core", "%"},
	{"cpu_share.crypt", "%"},
	{"cpu_share.por", "%"},
	{"cpu_share.reedsolomon", "%"},
	{"cpu_share.gf256", "%"},
	{"cpu_share.prp", "%"},
	{"cpu_share.store", "%"},
	{"cpu_share.wire", "%"},
	{"cpu_share.simnet", "%"},
	{"cpu_share.testnet", "%"},
	{"cpu_share.telemetry", "%"},
	{"cpu_share.syscall", "%"},
	{"cpu_share.runtime", "%"},
	{"cpu_share.other", "%"},
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks every metric name and unit against the character
// sets the benchmark's result format allows, and that no name repeats.
func validateDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range defs {
		for _, d := range list {
			if !metricNameRE.MatchString(d.Name) {
				return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %q: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// minBeyondTail is how many samples must lie above a percentile before
// it may be reported as a tail: fewer, and one slow op moves it.
const minBeyondTail = 10

// quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted xs by linear
// interpolation between order statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond counts the samples of n distinct ones that lie strictly above
// the interpolated p-quantile: the ranks after ⌊p·(n−1)⌋.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// tailPercentile picks the percentile reported as op_tail_ms: the
// workload's declared one (chosen in scouting as the highest that
// repeats across runs within a tenth) when at least minBeyondTail of n
// samples lie beyond it, else the highest of the lower candidates that
// has that many, else the median.
func tailPercentile(declared float64, n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if p <= declared && beyond(n, p) >= minBeyondTail {
			return p
		}
	}
	return 0.5
}

// latencySummary is the timing report of one phase's op latencies.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	Beyond int
}

// summarize reports the median and the tail percentile of ms.
func summarize(ms []float64, declaredTail float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p := tailPercentile(declaredTail, len(s))
	return latencySummary{
		N: len(s), P50: quantile(s, 0.5),
		TailP: p, Tail: quantile(s, p), Beyond: beyond(len(s), p),
	}
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
