package core

import (
	"bytes"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

const observeSrc = `SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`

// observeRunner builds a private 300-node deployment, so tracing and
// metering never touch a cached runner shared with other tests.
func observeRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A traced run's journal repeats byte for byte: per-sender message ids
// and the canonical journal order leave nothing run-dependent in it.
func TestTracedJournalDeterministic(t *testing.T) {
	for _, m := range []Method{NewSENSJoin(), External{}} {
		journal := func() []byte {
			r := observeRunner(t)
			rec := r.EnableTrace()
			mark := rec.Mark()
			if _, err := r.Run(observeSrc, m, 0); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, rec.JournalSince(mark)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		ref := journal()
		if len(ref) == 0 {
			t.Fatalf("%s: journal is empty", m.Name())
		}
		if got := journal(); !bytes.Equal(ref, got) {
			t.Fatalf("%s: traced journals differ (%d vs %d bytes)", m.Name(), len(got), len(ref))
		}
	}
}

// A traced run with live metrics on passes all six audit passes.
// AuditRun covers conservation, reconciliation, slot order,
// reliability and filter soundness; churn safety runs only with churn
// attached, so it runs here directly on the journal with the run's own
// verdict.
func TestTracedRunAuditsClean(t *testing.T) {
	for _, m := range []Method{NewSENSJoin(), External{}} {
		r := observeRunner(t)
		r.EnableMetrics(metrics.New())
		rec := r.EnableTrace()
		mark := rec.Mark()
		res, violations, err := r.AuditRun(observeSrc, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		violations = append(violations, trace.ChurnSafety(rec.JournalSince(mark), trace.ChurnVerdict{
			Complete:    res.Complete,
			OracleExact: true,
		})...)
		if len(violations) > 0 {
			t.Fatalf("%s: %d violation(s), first: %s", m.Name(), len(violations), violations[0])
		}
		if !res.Complete {
			t.Fatalf("%s: run incomplete: %s", m.Name(), res.IncompleteReason)
		}
	}
}

// Metering is observation, not interference: a metered run counts real
// traffic and returns the rows, response time and traffic of an
// unmetered one. Run and RunPrepared, with and without AutoAudit, count
// each execution exactly once.
func TestMeteredRunMatchesPlainRun(t *testing.T) {
	plain := observeRunner(t)
	want, err := plain.Run(observeSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	r := observeRunner(t)
	r.EnableMetrics(reg)
	got, err := r.Run(observeSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, want.Rows, got.Rows, "plain", "metered")
	if want.ResponseTime != got.ResponseTime {
		t.Fatalf("ResponseTime %g != %g — metering changed timing", got.ResponseTime, want.ResponseTime)
	}
	if a, b := plain.Stats.TotalTxBytes(), r.Stats.TotalTxBytes(); a != b {
		t.Fatalf("TotalTxBytes %d != %d — metering changed traffic", b, a)
	}
	if tx, _ := reg.Snapshot()["sensjoin_netsim_tx_packets_total"].(int64); tx <= 0 {
		t.Fatalf("sensjoin_netsim_tx_packets_total = %d, want > 0", tx)
	}

	runs := func() int64 {
		n, _ := reg.Snapshot()["sensjoin_core_runs_total"].(int64)
		return n
	}
	p, err := r.Prepare(observeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, audit := range []bool{false, true} {
		r.AutoAudit = audit
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return r.Run(observeSrc, NewSENSJoin(), 0) },
			func() (*Result, error) { return r.RunPrepared(p, NewSENSJoin(), 0) },
		} {
			before := runs()
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if got := runs() - before; got != 1 {
				t.Fatalf("AutoAudit=%t: one execution moved sensjoin_core_runs_total by %d, want 1", audit, got)
			}
		}
	}
}
