package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// audit-loopback runs the live audit path with the geoverifierd -audit
// defaults against a geoproofd -store shaped prover on loopback.
const (
	auditClients = 2
	auditK       = 20
	// auditTMax is geoverifierd -audit's default Δt_max. The paper's
	// 16 ms rejects a few dozen honest audits per run on a shared VM;
	// overruns of it are reported as core.rounds_over_16ms_per_10k.
	auditTMax    = 50 * time.Millisecond
	paperTMax    = 16 * time.Millisecond
	auditTailPct = 0.9
	// auditWarmup audits run at the end of every setup, so the pool's
	// connection, the page cache and the heap are warm before timing.
	auditWarmup = 300
)

// auditRig is one set-up audit-loopback deployment: a committed store
// served by a ProverServer on loopback, and the TPA and verifier device
// that audit it over a pooled mux connection.
type auditRig struct {
	dir      string
	st       *store.Store
	srv      *core.ProverServer
	served   chan error
	addr     string
	pool     *core.ProverPool
	verifier *core.Verifier
	tpa      *core.TPA
	layout   blockfile.Layout
	seed     int64
}

func setupAudit(seed int64, dir string) (*auditRig, error) {
	r := &auditRig{dir: dir, seed: seed}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	enc := por.NewEncoder(masterKey(seed))
	layout, _, err := encodeIntoStore(enc, dir, tenantFile(seed))
	if err != nil {
		return nil, err
	}
	r.layout = layout
	// geoproofd -store: reopen the committed store, verify its shard
	// checksums and serve it through the site's disk seam.
	if r.st, err = store.Open(dir); err != nil {
		return nil, err
	}
	if err := r.st.Verify(); err != nil {
		return nil, err
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "perfbench", Position: geo.Brisbane, Disk: disk.WD2500JD}, 1)
	site.StoreOn(r.st.FileID(), r.st.Layout(), r.st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.addr = lis.Addr().String()
	r.srv = &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(lis) }()

	signer, err := crypt.NewSigner()
	if err != nil {
		return nil, err
	}
	if r.verifier, err = core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil); err != nil {
		return nil, err
	}
	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = auditTMax
	if r.tpa, err = core.NewTPA(enc, signer.Public(), policy); err != nil {
		return nil, err
	}
	r.pool = &core.ProverPool{DialTimeout: 5 * time.Second, ConnsPerAddr: 1}
	tpa := r.tpa.WithNonceReader(seededRand(seed, "warmup-nonces"))
	for i := 0; i < auditWarmup; i++ {
		if res := r.audit(context.Background(), tpa, nil); res.err != "" {
			return nil, fmt.Errorf("warm-up audit %d: %s", i, res.err)
		}
	}
	ok = true
	return r, nil
}

func (r *auditRig) close() {
	if r.pool != nil {
		r.pool.Close()
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
	if r.st != nil {
		r.st.Close()
	}
	os.RemoveAll(r.dir)
}

// auditCalls times each layer call of one audit; set only when traced.
type auditCalls struct {
	request, get, run, verify time.Duration
}

type auditResult struct {
	st  core.SignedTranscript
	err string // empty when the verdict is an accepted per-transcript attestation
	// lateOnly marks a rejection whose one reason is a round over
	// Δt_max: the op failed, but every output the TPA checks was right.
	lateOnly bool
}

// audit runs one op: TPA.NewRequest → ProverPool.Get → Verifier.RunAudit
// → release → TPA.VerifyAudit. It fails unless the verdict is accepted
// with a per-transcript signature.
func (r *auditRig) audit(ctx context.Context, tpa *core.TPA, calls *auditCalls) auditResult {
	t0 := time.Now()
	req, err := tpa.NewRequest(r.st.FileID(), r.layout, auditK)
	if err != nil {
		return auditResult{err: "request: " + err.Error()}
	}
	t1 := time.Now()
	conn, release, err := r.pool.Get(r.addr)
	if err != nil {
		return auditResult{err: "pool: " + err.Error()}
	}
	t2 := time.Now()
	st, err := r.verifier.RunAudit(ctx, req, conn)
	release(err)
	if err != nil {
		return auditResult{err: "run: " + err.Error()}
	}
	t3 := time.Now()
	rep := tpa.VerifyAudit(req, r.layout, st)
	if calls != nil {
		t4 := time.Now()
		calls.request += t1.Sub(t0)
		calls.get += t2.Sub(t1)
		calls.run += t3.Sub(t2)
		calls.verify += t4.Sub(t3)
	}
	switch {
	case !rep.Accepted:
		return auditResult{st: st, err: "rejected: " + rep.Reason(), lateOnly: !rep.TimingOK && len(rep.Reasons) == 1}
	case rep.Attestation != core.AttestPerTranscript:
		return auditResult{st: st, err: "attested " + rep.Attestation.String() + ", want per-transcript"}
	}
	return auditResult{st: st}
}

// rttHist counts round RTTs at 1 µs resolution; rounds over its range
// land in the last bucket.
type rttHist [1 << 16]uint32

func (h *rttHist) add(rounds []core.AuditRound) {
	for _, rd := range rounds {
		us := rd.RTT.Microseconds()
		if us >= int64(len(h)) {
			us = int64(len(h) - 1)
		}
		h[us]++
	}
}

func (h *rttHist) merge(o *rttHist) {
	for i, v := range o {
		h[i] += v
	}
}

// quantileUs returns the smallest bucket holding the p-quantile.
func (h *rttHist) quantileUs(p float64) float64 {
	var n uint64
	for _, v := range h {
		n += uint64(v)
	}
	want := uint64(p*float64(n-1)) + 1
	var seen uint64
	for i, v := range h {
		seen += uint64(v)
		if seen >= want {
			return float64(i)
		}
	}
	return float64(len(h) - 1)
}

// overUs counts rounds at or above us.
func (h *rttHist) overUs(us int) (over, total uint64) {
	for i, v := range h {
		total += uint64(v)
		if i >= us {
			over += uint64(v)
		}
	}
	return over, total
}

// auditCounterKeys are the per-op counters the traced phase must repeat.
var auditCounterKeys = []string{
	"geoproof_prover_requests_total{type=segment}",
	"geoproof_prover_requests_total{type=batch}",
	"geoproof_mux_frames_written_total",
	"geoproof_mux_frames_read_total",
	"geoproof_store_preads_total",
	"geoproof_pool_dials_total",
}

// auditPhase is one measured closed loop plus what its audits recorded.
type auditPhase struct {
	phase
	rtt      *rttHist
	calls    auditCalls
	counters counters
}

func (r *auditRig) measure(rep *report, seconds float64, tracer *telemetry.AuditTracer, phaseName string) auditPhase {
	tpas := make([]*core.TPA, auditClients)
	hists := make([]*rttHist, auditClients)
	calls := make([]*auditCalls, auditClients)
	for c := range tpas {
		// One nonce stream per client: math/rand is not safe for
		// concurrent use.
		tpas[c] = r.tpa.WithNonceReader(seededRand(r.seed, fmt.Sprintf("%s-nonces-%d", phaseName, c)))
		hists[c] = new(rttHist)
		if tracer != nil {
			calls[c] = new(auditCalls)
		}
	}
	errs := make([][]auditResult, auditClients)
	before := readCounters()
	p := closedLoop(auditClients, seconds, func(c int) {
		ctx := context.Background()
		var tr *telemetry.Trace
		if tracer != nil {
			tr = tracer.Begin("tenant", r.addr, fileID, 0)
			ctx = telemetry.WithTrace(ctx, tr)
		}
		res := r.audit(ctx, tpas[c], calls[c])
		tr.Finish("", res.err, 1)
		hists[c].add(res.st.Transcript.Rounds)
		if res.err != "" {
			errs[c] = append(errs[c], res)
		}
	})
	out := auditPhase{phase: p, rtt: hists[0], counters: readCounters().sub(before)}
	for c := range errs {
		for _, e := range errs[c] {
			rep.fail("%s", e.err)
			if !e.lateOnly {
				rep.mismatch("%s", e.err)
			}
		}
		if c > 0 {
			out.rtt.merge(hists[c])
		}
		if calls[c] != nil {
			out.calls.request += calls[c].request
			out.calls.get += calls[c].get
			out.calls.run += calls[c].run
			out.calls.verify += calls[c].verify
		}
	}
	return out
}

func runAudit(cfg config) (*report, error) {
	rep := newReport()
	n := 0
	rig, setupS, err := timeSetups(setupRepeats, func() (*auditRig, error) {
		n++
		return setupAudit(cfg.Seed, filepath.Join(cfg.WorkDir, fmt.Sprintf("store-%d", n)))
	}, (*auditRig).close)
	if err != nil {
		return nil, fmt.Errorf("audit-loopback setup: %w", err)
	}
	defer rig.close()

	base := rig.measure(rep, cfg.Seconds, nil, "measured")
	rep.Attempted = int64(len(base.LatMs))
	rep.note("audit-loopback: %d clients, k=%d, Δt_max=%v; round RTT p50 %.0f µs",
		auditClients, auditK, auditTMax, base.rtt.quantileUs(0.5))
	lat := rep.opLatency(base.phase, auditTailPct)
	if !cfg.Trace {
		rep.setEndToEnd(base.phase, lat, setupS)
		return rep, nil
	}

	tracer := telemetry.NewAuditTracer(4096, nil)
	var traced auditPhase
	shares, err := cpuProfile(cfg.WorkDir, func() {
		traced = rig.measure(rep, cfg.Seconds, tracer, "traced")
	})
	if err != nil {
		return nil, err
	}
	rep.Attempted += int64(len(traced.LatMs))
	comparePerOp(rep, auditCounterKeys, base.counters, traced.counters, len(base.LatMs), len(traced.LatMs))
	setShares(rep, shares)

	m := rep.Metrics
	nb := float64(len(base.LatMs))
	m["round_rtt_p50_us"] = base.rtt.quantileUs(0.5)
	m["core.round_rtt_p99_us"] = base.rtt.quantileUs(0.99)
	over, total := base.rtt.overUs(int(paperTMax / time.Microsecond))
	m["core.rounds_over_16ms_per_10k"] = 1e4 * float64(over) / float64(total)
	m["core.pool.dials_per_kaudit"] = 1e3 * base.counters["geoproof_pool_dials_total"] / nb
	m["wire.mux_frames_per_audit"] = (base.counters["geoproof_mux_frames_written_total"] +
		base.counters["geoproof_mux_frames_read_total"]) / nb
	m["core.prover.segment_requests_per_audit"] = base.counters["geoproof_prover_requests_total{type=segment}"] / nb
	m["core.prover.batch_requests_per_audit"] = base.counters["geoproof_prover_requests_total{type=batch}"] / nb
	m["store.preads_per_audit"] = base.counters["geoproof_store_preads_total"] / nb
	rep.setProcLayer(base.phase, traced.phase)

	nt := float64(len(traced.LatMs))
	m["core.tpa.request_us"] = float64(traced.calls.request.Microseconds()) / nt
	m["core.pool.get_us"] = float64(traced.calls.get.Microseconds()) / nt
	m["core.verifier.run_us"] = float64(traced.calls.run.Microseconds()) / nt
	m["core.tpa.verify_us"] = float64(traced.calls.verify.Microseconds()) / nt
	spans := map[string][]float64{}
	for _, at := range tracer.Snapshot() {
		for _, s := range at.Spans {
			spans[s.Name] = append(spans[s.Name], float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	m["core.verifier.rounds_us"] = mean(spans["rounds"])
	m["crypt.attest_us"] = mean(spans["attest"])
	rep.note("traced: %.0f audits/s untraced vs %.0f traced; %d traces sampled",
		base.OpsPerSec(), traced.OpsPerSec(), len(tracer.Snapshot()))
	return rep, nil
}
