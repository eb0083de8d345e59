package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/por"
	"repro/internal/testnet"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 5, 19, 20, 21, 40, 41, 99, 100, 101, 110, 111, 500, 1000, 1001, 50000} {
		for _, declared := range []float64{0.5, 0.75, 0.9, 0.99} {
			p := tailPercentile(declared, n)
			if p > declared && p != 0.5 {
				t.Errorf("n=%d declared p%g: picked p%g above the declared percentile", n, 100*declared, 100*p)
			}
			// Count with distinct samples: how many lie strictly above
			// the reported value.
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			s := summarize(xs, declared)
			above := 0
			for _, x := range xs {
				if x > s.Tail {
					above++
				}
			}
			if above != s.Beyond {
				t.Errorf("n=%d p%g: %d samples above the tail, summary says %d", n, 100*p, above, s.Beyond)
			}
			if p != 0.5 && above < minBeyondTail {
				t.Errorf("n=%d: p%g has only %d samples beyond it", n, 100*p, above)
			}
			if p == 0.5 && beyond(n, 0.75) >= minBeyondTail && declared >= 0.75 {
				t.Errorf("n=%d declared p%g: fell back to the median although p75 has %d beyond", n, 100*declared, beyond(n, 0.75))
			}
		}
	}
	if p := tailPercentile(0.9, 50000); p != 0.9 {
		t.Errorf("50000 samples: tail p%g, want the declared p90", 100*p)
	}
	if p := tailPercentile(0.9, 90); p != 0.75 {
		t.Errorf("90 samples: tail p%g, want p75 (p90 has 9 beyond)", 100*p)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricDef{
		{"", "ms"}, {"_lead", "ms"}, {"has space", "ms"}, {"ünicode", "ms"},
		{strings.Repeat("a", 65), "ms"}, {"ok", ""}, {"ok", "µs"}, {"ok", strings.Repeat("s", 17)},
	} {
		if validateDefs([]metricDef{bad}) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if validateDefs([]metricDef{{"a", "s"}}, []metricDef{{"a", "s"}}) == nil {
		t.Error("a name used twice was accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the printed metrics
// in step: the same names, in the same order, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var runs []string
	for w := range workloads {
		runs = append(runs, w)
	}
	sort.Strings(runs)
	if strings.Join(names, ",") != strings.Join(runs, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, runs)
	}
}

func TestPackageGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*TPA).VerifyAudit":          "core",
		"repro/internal/por.(*ring[go.shape.*uint8]).get": "por",
		"repro/internal/crypt.(*Tagger).Tag":              "crypt",
		"crypto/internal/fips140/nistec.(*P256Point).Add": "crypt",
		"p256MulInternal":  "crypt",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime",
		"sync.(*Mutex).Lock":                                  "runtime",
		"internal/poll.(*FD).Read":                            "syscall",
		"syscall.Syscall6":                                    "syscall",
		"repro/internal/blockfile.Layout.SegmentOffset":       "other",
		"slices.SortFunc[go.shape.[]uint8,go.shape.uint8]":    "other",
		"repro/internal/testnet.(*world).applyChurn":          "testnet",
		"repro/internal/simnet.(*Network).RoundTrip":          "simnet",
		"repro/internal/telemetry.(*Counter).Inc":             "telemetry",
		"repro/internal/gf256.mulSlabAVX2":                    "gf256",
		"repro/internal/reedsolomon.(*BlockCode).EncodeChunk": "reedsolomon",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
	out := []byte(`File: perfbench
Showing nodes accounting for 3s, 100% of 3s total
      flat  flat%   sum%        cum   cum%
     1.50s 50.00% 50.00%      1.50s 50.00%  p256MulInternal
     900ms 30.00% 80.00%      1.20s 40.00%  runtime.mallocgc
     0.60s 20.00%   100%      0.60s 20.00%  repro/internal/core.DeriveIndices
`)
	shares, err := foldTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shares["crypt"]-50) > 1e-9 || math.Abs(shares["runtime"]-30) > 1e-9 || math.Abs(shares["core"]-20) > 1e-9 {
		t.Errorf("folded shares %v, want crypt 50, runtime 30, core 20", shares)
	}
}

// TestAuditCheckFiresOnCorruptSegment corrupts a segment the next audit
// will challenge: the op must fail with the TPA's MAC rejection, which
// makes the run incorrect. A round over Δt_max fails the op but leaves
// every checked output right.
func TestAuditCheckFiresOnCorruptSegment(t *testing.T) {
	rig, err := setupAudit(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	if res := rig.audit(context.Background(), rig.tpa.WithNonceReader(seededRand(7, "smoke")), nil); res.err != "" {
		t.Fatalf("honest audit failed: %s", res.err)
	}

	policy := rig.tpa.Policy()
	policy.TMax = time.Nanosecond
	strict, err := core.NewTPA(por.NewEncoder(masterKey(7)), rig.verifier.Public().Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if res := rig.audit(context.Background(), strict, nil); !res.lateOnly || !strings.Contains(res.err, "Δt_max") {
		t.Fatalf("audit against a 1 ns Δt_max: err %q lateOnly %v, want a late-only rejection", res.err, res.lateOnly)
	}

	// The TPA draws its nonce from this stream; a twin stream tells the
	// test which segments the audit will challenge.
	nonce := make([]byte, 16)
	seededRand(7, "corrupt").Read(nonce)
	idx, err := core.DeriveIndices(nonce, rig.layout.Segments, auditK)
	if err != nil {
		t.Fatal(err)
	}
	off, err := rig.layout.SegmentOffset(int64(idx[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.st.WriteAt([]byte("corrupted segment bytes"), off); err != nil {
		t.Fatal(err)
	}
	res := rig.audit(context.Background(), rig.tpa.WithNonceReader(seededRand(7, "corrupt")), nil)
	if !strings.Contains(res.err, "rejected") || !strings.Contains(res.err, "MAC") || res.lateOnly {
		t.Fatalf("audit of a corrupted segment: err %q lateOnly %v, want a MAC rejection", res.err, res.lateOnly)
	}
}

// TestSetupStoreCheckFiresOnWrongBytes extracts a file and compares it
// with an input that differs in one byte.
func TestSetupStoreCheckFiresOnWrongBytes(t *testing.T) {
	rig := &storeRig{enc: por.NewEncoder(masterKey(3)), data: tenantFile(3), dir: t.TempDir()}
	if _, err := rig.op(); err != nil {
		t.Fatalf("honest op failed: %v", err)
	}
	layout, _, err := encodeIntoStore(rig.enc, rig.dir, rig.data)
	if err != nil {
		t.Fatal(err)
	}
	rig.data = append([]byte(nil), rig.data...)
	rig.data[12345] ^= 1
	if _, err := rig.extractAndCheck(layout); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("extract compared against a different input: err %v, want a mismatch", err)
	}
}

// TestFleetCheckFiresOnHashMismatch runs a small library scenario twice:
// identical runs pass the set check, and a run whose trace hash differs
// fails it.
func TestFleetCheckFiresOnHashMismatch(t *testing.T) {
	spec, err := testnet.Lookup(fleetWarmup)
	if err != nil {
		t.Fatal(err)
	}
	var fc fleetChecker
	for i := 0; i < 2; i++ {
		run, err := fleetOp(spec)
		if err != nil {
			t.Fatal(err)
		}
		if why := fc.check(run); why != "" {
			t.Fatalf("run %d of an unchanged scenario failed the set check: %s", i, why)
		}
	}
	run := *fc.first
	run.hash = "not-" + run.hash
	if fc.check(run) == "" {
		t.Fatal("a run with a different trace hash passed the set check")
	}
	run = *fc.first
	run.counters = counters{fleetCounterKeys[0]: run.counters[fleetCounterKeys[0]] + 1}
	if fc.check(run) == "" {
		t.Fatal("a run with different verdict counts passed the set check")
	}
}

// TestTracedRunIsCorrectAndComplete runs the traced path of the two
// concurrent workloads briefly: both phases, the per-op path check and
// the CPU profile, with the workload's own layers measured.
func TestTracedRunIsCorrectAndComplete(t *testing.T) {
	for name, tc := range map[string]struct {
		run  func(config) (*report, error)
		want []string // metrics that must read above 0
	}{
		"audit-loopback": {runAudit, []string{"round_rtt_p50_us", "core.verifier.run_us", "crypt.attest_us", "store.preads_per_audit", "cpu_share.crypt"}},
		"setup-store":    {runSetupStore, []string{"encode_MBps", "extract_MBps", "store.preads_per_MiB", "cpu_share.gf256"}},
	} {
		rep, err := tc.run(config{Workload: name, Seed: 11, Seconds: 0.3, Trace: true, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Incorrect != 0 || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d checks and %d of %d ops failed: %v %v",
				name, rep.Incorrect, rep.Failed, rep.Attempted, rep.Mismatch, rep.Errors)
		}
		for _, m := range append(tc.want, "proc.cpu_us_per_op") {
			if rep.Metrics[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, rep.Metrics[m])
			}
		}
	}
}
