package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// setup-store runs one tenant's POR setup and recovery per op through
// the sharded store: EncodeStream into store.Create, Commit, Open, and
// ExtractStream into memory, then compares the bytes with the input.
const (
	// setupStoreTailPct keeps 10 samples beyond it down to 41 ops per
	// run; p90 would need 100, which a contended host does not reach.
	setupStoreTailPct = 0.75
	// setupStoreWarmup ops run in every setup, so the first timed op
	// finds a warm heap and page cache.
	setupStoreWarmup = 2
)

type storeRig struct {
	enc  *por.Encoder
	data []byte
	// dir is the tenant's store directory; every op supersedes the
	// previous op's store there, as re-running setup for a file does.
	dir string
}

// storeTiming is one op's layer calls.
type storeTiming struct {
	encodeTiming
	Open, Extract time.Duration
}

func (r *storeRig) op() (storeTiming, error) {
	layout, et, err := encodeIntoStore(r.enc, r.dir, r.data)
	if err != nil {
		return storeTiming{encodeTiming: et}, err
	}
	t, err := r.extractAndCheck(layout)
	t.encodeTiming = et
	return t, err
}

// extractAndCheck reopens the committed store, extracts the file into
// memory and compares it with the input.
func (r *storeRig) extractAndCheck(layout blockfile.Layout) (storeTiming, error) {
	var t storeTiming
	t0 := time.Now()
	st, err := store.Open(r.dir)
	if err != nil {
		return t, err
	}
	defer st.Close()
	t1 := time.Now()
	out := por.NewMemTarget(layout.OrigBytes)
	if err := r.enc.ExtractStream(fileID, layout, st, out); err != nil {
		return t, fmt.Errorf("extract: %w", err)
	}
	t2 := time.Now()
	t.Open, t.Extract = t1.Sub(t0), t2.Sub(t1)
	if !bytes.Equal(out.B, r.data) {
		return t, fmt.Errorf("extracted file differs from the input")
	}
	return t, nil
}

// storeCounterKeys are the per-op counters the traced phase must repeat.
var storeCounterKeys = []string{
	"geoproof_store_preads_total",
	"geoproof_store_pread_bytes_total",
}

type storePhase struct {
	phase
	timings  []storeTiming
	counters counters
}

func (r *storeRig) measure(rep *report, seconds float64) storePhase {
	var out storePhase
	before := readCounters()
	out.phase = closedLoop(1, seconds, func(int) {
		t, err := r.op()
		if err != nil {
			rep.fail("%v", err)
			rep.mismatch("%v", err)
			return
		}
		out.timings = append(out.timings, t)
	})
	out.counters = readCounters().sub(before)
	return out
}

// medianMs returns the median of one timing field in milliseconds.
func medianMs(ts []storeTiming, field func(storeTiming) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = float64(field(t)) / 1e6
	}
	return median(xs)
}

func runSetupStore(cfg config) (*report, error) {
	rep := newReport()
	n := 0
	rig, setupS, err := timeSetups(setupRepeats, func() (*storeRig, error) {
		n++
		r := &storeRig{
			enc:  por.NewEncoder(masterKey(cfg.Seed)),
			data: tenantFile(cfg.Seed),
			dir:  filepath.Join(cfg.WorkDir, fmt.Sprintf("tenant-%d", n)),
		}
		for i := 0; i < setupStoreWarmup; i++ {
			if _, err := r.op(); err != nil {
				return nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		return r, nil
	}, func(r *storeRig) { os.RemoveAll(r.dir) })
	if err != nil {
		return nil, fmt.Errorf("setup-store setup: %w", err)
	}

	base := rig.measure(rep, cfg.Seconds)
	rep.Attempted = int64(len(base.LatMs))
	layout, _ := blockfile.NewLayout(rig.enc.Params(), fileBytes)
	rep.note("setup-store: a %.0f MiB file, %d segments", fileMiB, layout.Segments)
	lat := rep.opLatency(base.phase, setupStoreTailPct)
	encodeMs := medianMs(base.timings, func(t storeTiming) time.Duration { return t.Encode + t.Commit })
	extractMs := medianMs(base.timings, func(t storeTiming) time.Duration { return t.Open + t.Extract })
	rep.note("encode %.1f MiB/s, extract %.1f MiB/s", fileMiB/(encodeMs/1e3), fileMiB/(extractMs/1e3))
	if !cfg.Trace {
		rep.setEndToEnd(base.phase, lat, setupS)
		return rep, nil
	}

	var traced storePhase
	shares, err := cpuProfile(cfg.WorkDir, func() { traced = rig.measure(rep, cfg.Seconds) })
	if err != nil {
		return nil, err
	}
	rep.Attempted += int64(len(traced.LatMs))
	comparePerOp(rep, storeCounterKeys, base.counters, traced.counters, len(base.LatMs), len(traced.LatMs))
	setShares(rep, shares)

	m := rep.Metrics
	nb := float64(len(base.LatMs))
	m["encode_MBps"] = fileMiB / (encodeMs / 1e3)
	m["extract_MBps"] = fileMiB / (extractMs / 1e3)
	m["por.encode_stream_ms"] = medianMs(traced.timings, func(t storeTiming) time.Duration { return t.Encode })
	m["store.commit_ms"] = medianMs(traced.timings, func(t storeTiming) time.Duration { return t.Commit })
	m["store.open_ms"] = medianMs(traced.timings, func(t storeTiming) time.Duration { return t.Open })
	m["por.extract_stream_ms"] = medianMs(traced.timings, func(t storeTiming) time.Duration { return t.Extract })
	m["store.preads_per_MiB"] = base.counters["geoproof_store_preads_total"] / nb / fileMiB
	m["store.pread_KB_per_MiB"] = base.counters["geoproof_store_pread_bytes_total"] / 1024 / nb / fileMiB
	m["proc.cpu_ms_per_MiB"] = float64(base.Proc.CPU.Microseconds()) / 1e3 / nb / fileMiB
	m["proc.alloc_MB_per_MiB"] = float64(base.Proc.AllocBytes) / (1 << 20) / nb / fileMiB
	rep.setProcLayer(base.phase, traced.phase)
	return rep, nil
}
