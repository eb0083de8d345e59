// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the public APIs of core, por, store and testnet,
// checks every result, and prints the workload's metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run measures an untraced and a traced phase and prints the per-layer
// ones. perfbench/run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload audit-loopback --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workRoot holds each run's private scratch directory, inside the
// checkout's build directory: the benchmark writes nowhere else.
const workRoot = ".bench_build/work"

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"audit-loopback": runAudit,
	"setup-store":    runSetupStore,
	"fleet-sim":      runFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: audit-loopback, setup-store or fleet-sim")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "seconds each measured phase runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	fn, ok := workloads[cfg.Workload]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (want audit-loopback, setup-store or fleet-sim)", cfg.Workload)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if cfg.Seconds <= 0 {
		return 2, fmt.Errorf("-seconds %v: want > 0", cfg.Seconds)
	}
	cfg.Trace = trace == 1
	if err := validateDefs(endToEnd, perLayer); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(workRoot, cfg.Workload+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir

	fmt.Println("fingerprint:", fingerprint(dir))
	rep, err := fn(cfg)
	if err != nil {
		return 1, err
	}
	for _, n := range rep.Notes {
		fmt.Println(n)
	}
	for _, e := range rep.Errors {
		fmt.Println("failed op:", e)
	}
	for _, m := range rep.Mismatch {
		fmt.Println("check failed:", m)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.Incorrect == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok && !cfg.Trace {
			return 1, fmt.Errorf("workload %s did not measure %s", cfg.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-40s %14.4f %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1, fmt.Errorf("%d checks failed; %d of %d ops failed", rep.Incorrect, rep.Failed, rep.Attempted)
	}
	return 0, nil
}

// fingerprint describes the machine a result was measured on: numbers
// from another machine are history, not a baseline.
func fingerprint(dir string) string {
	f := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     buildRevision,
		"store_dir":  dir,
		"store_fs":   fsType(dir),
	}
	b, _ := json.Marshal(f)
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// buildRevision is the source revision run.sh stamps into the binary:
// the git commit when built from a clone, else a digest of the sources.
var buildRevision = "unknown"

// fsType names the filesystem holding dir, since store timings depend
// on it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
