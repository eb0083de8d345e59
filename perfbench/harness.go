package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// WorkDir is a private scratch directory inside the checkout; the
	// workload may create anything under it and the harness removes it.
	WorkDir string
}

// report is what a workload hands back to main for printing.
type report struct {
	Attempted int64
	Failed    int64
	// Errors holds the verdict reason or error of failed ops (bounded).
	Errors []string
	// Incorrect counts broken output checks: wrong bytes, a MAC or
	// signature the TPA refused, a hash that differs between runs, a
	// traced path that diverged. Any makes the run incorrect; Mismatch
	// describes the first few.
	Incorrect int64
	Mismatch  []string
	Metrics   map[string]float64
	// Notes are human-readable lines printed before the result.
	Notes []string
}

func newReport() *report { return &report{Metrics: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *report) mismatch(format string, args ...any) {
	r.Incorrect++
	if len(r.Mismatch) < 20 {
		r.Mismatch = append(r.Mismatch, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// opLatency summarizes an untraced phase's op latencies and notes which
// percentile op_tail_ms reports and the host steal over the phase.
func (r *report) opLatency(p phase, declaredTail float64) latencySummary {
	lat := summarize(p.LatMs, declaredTail)
	r.note("%d ops in %.2fs; op_tail_ms is p%g (%d ops beyond it); host steal %.2f%%",
		lat.N, p.Elapsed.Seconds(), 100*lat.TailP, lat.Beyond, 100*p.Steal)
	return lat
}

// setEndToEnd records the end-to-end metrics of an untraced phase.
func (r *report) setEndToEnd(p phase, lat latencySummary, setupS float64) {
	r.Metrics["ops_per_s"] = p.OpsPerSec()
	r.Metrics["op_p50_ms"] = lat.P50
	r.Metrics["op_tail_ms"] = lat.Tail
	r.Metrics["setup_s"] = setupS
	r.Metrics["max_rss_MB"] = maxRSSMB()
}

// setProcLayer records the untraced phase's process cost per op and the
// tracing overhead: untraced minus traced ops_per_s.
func (r *report) setProcLayer(base, traced phase) {
	n := float64(len(base.LatMs))
	r.Metrics["proc.cpu_us_per_op"] = float64(base.Proc.CPU.Microseconds()) / n
	r.Metrics["proc.alloc_KB_per_op"] = float64(base.Proc.AllocBytes) / 1024 / n
	r.Metrics["proc.gc_per_kop"] = 1e3 * float64(base.Proc.GCs) / n
	r.Metrics["trace.overhead_ops_per_s"] = base.OpsPerSec() - traced.OpsPerSec()
}

// phase is one measured closed loop: per-op latencies, the wall time it
// ran and what the process spent meanwhile.
type phase struct {
	LatMs   []float64
	Elapsed time.Duration
	Proc    procDelta
	Steal   float64
}

// OpsPerSec is completed ops (failed ones included) per wall second.
func (p phase) OpsPerSec() float64 { return float64(len(p.LatMs)) / p.Elapsed.Seconds() }

// closedLoop runs op from clients goroutines, each issuing its next op
// only after the previous one returned, until seconds have passed; an op
// in flight at the deadline completes and counts. op records its own
// failures.
func closedLoop(clients int, seconds float64, op func(client int)) phase {
	lat := make([][]float64, clients)
	stealBefore := readCPUStat()
	before := sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); t0.Before(deadline); {
				op(c)
				t1 := time.Now()
				lat[c] = append(lat[c], float64(t1.Sub(t0))/1e6)
				t0 = t1
			}
		}()
	}
	wg.Wait()
	p := phase{Elapsed: time.Since(start), Proc: sampleProc().sub(before)}
	p.Steal = readCPUStat().stealShare(stealBefore)
	for c := range lat {
		p.LatMs = append(p.LatMs, lat[c]...)
	}
	return p
}

// timeSetups runs setup n times and returns the median duration; every
// instance but the last is torn down. It stops at the first error.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			inst = v
		}
	}
	return inst, median(secs), nil
}

// setupRepeats is how many times each workload sets up per run; setup_s
// is their median.
const setupRepeats = 5

// procDelta is process CPU, allocation and GC cost over an interval.
type procDelta struct {
	CPU        time.Duration
	AllocBytes uint64
	GCs        uint32
}

type procSample struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (s procSample) sub(o procSample) procDelta {
	return procDelta{CPU: s.cpu - o.cpu, AllocBytes: s.alloc - o.alloc, GCs: s.gcs - o.gcs}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var s cpuStat
	for i := 1; i < len(f) && i <= 8; i++ { // user..steal; guest is inside user
		v, _ := strconv.ParseUint(f[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealShare is the fraction of host CPU time stolen from this VM
// between o and s; -1 when /proc/stat is unavailable.
func (s cpuStat) stealShare(o cpuStat) float64 {
	if s.total <= o.total {
		return -1
	}
	return float64(s.steal-o.steal) / float64(s.total-o.total)
}

// counters is a point-in-time copy of the program's telemetry counters,
// keyed "name" or "name{label=value}".
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, s := range telemetry.Default.Snapshot() {
		if s.Kind != "counter" {
			continue
		}
		key := s.Name
		if len(s.Labels) > 0 {
			var ls []string
			for k, v := range s.Labels {
				ls = append(ls, k+"="+v)
			}
			sort.Strings(ls)
			key += "{" + strings.Join(ls, ",") + "}"
		}
		c[key] = s.Value
	}
	return c
}

// sub returns c − o for every key of c.
func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// sumPrefix adds every series whose key starts with prefix.
func (c counters) sumPrefix(prefix string) float64 {
	var s float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// comparePerOp checks that the traced phase did the same work per op as
// the untraced one — same counters per op to 1e-3 — so the per-layer
// numbers describe the code path the end-to-end numbers measure.
func comparePerOp(r *report, keys []string, untraced, traced counters, nu, nt int) {
	for _, k := range keys {
		u := untraced[k] / float64(nu)
		t := traced[k] / float64(nt)
		if d := u - t; d > 1e-3 || d < -1e-3 {
			r.mismatch("traced path diverged: %s per op %.4f untraced vs %.4f traced", k, u, t)
		}
	}
}

// cpuProfile records a CPU profile of fn and returns the share of
// samples per package group, in percent.
func cpuProfile(dir string, fn func()) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create profile: %w", err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(out)
}

// foldTop sums the flat column of `pprof -top` output by package group.
func foldTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseProfileDuration(f[0])
		if err != nil {
			return nil, err
		}
		name := strings.Join(f[5:], " ")
		shares[packageGroup(name)] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	for k := range shares {
		shares[k] *= 100 / total
	}
	return shares, nil
}

// parseProfileDuration reads pprof's flat column ("1.20s", "350ms").
func parseProfileDuration(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof column %q: %w", s, err)
	}
	return d.Seconds(), nil
}

// packageGroup maps a profiled function to the layer it is charged to.
func packageGroup(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		switch p := strings.TrimPrefix(pkg, "repro/internal/"); p {
		case "core", "por", "reedsolomon", "gf256", "prp", "store", "wire",
			"simnet", "testnet", "telemetry":
			return p
		case "crypt":
			return "crypt"
		}
		return "other"
	case strings.HasPrefix(pkg, "crypto/"), strings.HasPrefix(pkg, "p256"):
		// p256* are the unqualified assembly symbols of the P-256
		// field arithmetic under crypto/internal.
		return "crypt"
	case pkg == "net" || pkg == "syscall" || pkg == "os" || pkg == "internal/poll" ||
		pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	}
	return "other"
}

// setShares copies a folded profile into the cpu_share.* metrics.
func setShares(r *report, shares map[string]float64) {
	for _, d := range perLayer {
		if g, ok := strings.CutPrefix(d.Name, "cpu_share."); ok {
			r.Metrics[d.Name] = shares[g]
		}
	}
}
