package core

import (
	"sort"

	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// EnableTrace attaches a journal recorder to the runner (idempotent):
// radio events flow in through the network tracer and protocol spans
// through Exec.Trace. Returns the recorder for export/audit calls.
func (r *Runner) EnableTrace() *trace.Recorder {
	if r.Trace == nil {
		r.Trace = trace.New()
		r.Net.SetTracer(r.Trace.Radio())
	}
	return r.Trace
}

// DisableTrace detaches the runner's recorder and tracer entirely, so a
// pooled runner stops paying journal cost once a sampled query is done.
func (r *Runner) DisableTrace() {
	r.Trace = nil
	r.Net.SetTracer(nil)
}

// AuditRun prepares src, executes it like Run and then audits the
// execution's journal segment: conservation (every delivery matches a
// transmission), reconciliation (journal totals equal the stats
// collector's, bit-exact), slot-schedule ordering (no parent transmits
// before its children in the collection phases), reliability, churn
// safety when churn is attached, and — for filter-based methods on
// loss-free runs — filter soundness (no suppressed tuple contributes to
// the ground truth). Tracing is enabled on demand. With AutoAudit set,
// the audited journal segment is truncated afterwards so long soaks
// stay bounded.
func (r *Runner) AuditRun(src string, m Method, t float64) (*Result, []trace.Violation, error) {
	p, err := r.Prepare(src)
	if err != nil {
		return nil, nil, err
	}
	return r.auditPrepared(p, m, t)
}

// auditPrepared is AuditRun on a prepared query.
func (r *Runner) auditPrepared(p *Prepared, m Method, t float64) (*Result, []trace.Violation, error) {
	var x *Exec
	var truth, res *Result
	violations, err := r.audit(auditPhases(m), func() error {
		var err error
		if x, err = r.ExecPrepared(p, t); err != nil {
			return err
		}
		// The churn-safety oracle must be computed before the run: churn
		// may kill members mid-round, and GroundTruth reflects aliveness
		// at call time — the contract is "exact w.r.t. the snapshot the
		// round started from".
		if r.churn != nil {
			if truth, err = GroundTruth(x); err != nil {
				return err
			}
		}
		res, err = m.Run(x)
		return err
	}, func(j *trace.Journal) ([]trace.Violation, error) {
		var v []trace.Violation
		if r.churn != nil {
			v = trace.ChurnSafety(j, trace.ChurnVerdict{
				Complete:        res.Complete,
				OracleExact:     sameRowSet(truth.Rows, res.Rows),
				Reason:          res.IncompleteReason,
				MissingSubtrees: len(res.MissingSubtrees),
				Repairs:         res.Repairs,
			})
		}
		// Filter soundness needs the ground truth to be reachable: a
		// dead member transmits nothing (silently — no drop/lost
		// events), so the filter legitimately misses its keys and
		// suppressing its join partners is correct. Audit only when
		// every node is alive; lossy runs stand down inside
		// FilterSoundness itself.
		if filterPhased(m) && r.Net.AllAlive() {
			contrib, err := groundTruthContributors(x)
			if err != nil {
				return nil, err
			}
			v = append(v, trace.FilterSoundness(j, contrib)...)
		}
		return v, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, violations, nil
}

// audit runs one round under the journal and checks its segment with
// the passes every audited round shares — conservation, reconciliation
// against the stats collector, slot order and reliability — followed by
// the caller's own passes (extra). Slot order is checked against the
// tree captured before the round: mid-round repair swaps r.Tree, but the
// slot-scheduled phases ran on the tree the round started with
// (recovery traffic is not slot-audited). With AutoAudit set, the
// segment is truncated afterwards.
func (r *Runner) audit(slotPhases []string, run func() error,
	extra func(*trace.Journal) ([]trace.Violation, error)) ([]trace.Violation, error) {
	rec := r.EnableTrace()
	mark := rec.Mark()
	before := r.Stats.Snapshot()
	tree := r.Tree
	if err := run(); err != nil {
		return nil, err
	}
	after := r.Stats.Snapshot()
	j := rec.JournalSince(mark)
	violations := trace.Conservation(j)
	violations = append(violations, trace.Reconcile(j, before, after)...)
	violations = append(violations, trace.SlotOrder(j, tree, slotPhases)...)
	violations = append(violations, trace.Reliability(j)...)
	more, err := extra(j)
	if err != nil {
		return nil, err
	}
	violations = append(violations, more...)
	if r.AutoAudit {
		rec.Truncate(mark)
	}
	return violations, nil
}

// sameRowSet compares two results order-insensitively (ORDER BY-less
// queries return rows in collection order, which recovery can permute).
func sameRowSet(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := canonRowOrder(a), canonRowOrder(b)
	for i := range ca {
		ra, rb := ca[i], cb[i]
		if len(ra) != len(rb) {
			return false
		}
		for c := range ra {
			if ra[c] != rb[c] {
				return false
			}
		}
	}
	return true
}

func canonRowOrder(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		for c := 0; c < len(a) && c < len(b); c++ {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// auditPhases selects the method's phases that follow the leaves-first
// TAG slot schedule; dissemination phases flood downstream and are not
// slot-ordered.
func auditPhases(m Method) []string {
	var out []string
	for _, p := range m.Phases() {
		switch p {
		case PhaseJACollect, PhaseFinalCollect, PhaseExternal:
			out = append(out, p)
		}
	}
	return out
}

// filterPhased reports whether the method disseminates a join filter
// (and so emits suppress/prune decisions worth auditing).
func filterPhased(m Method) bool {
	for _, p := range m.Phases() {
		if p == PhaseFilterDissem {
			return true
		}
	}
	return false
}

// groundTruthContributors computes, network-free, the set of nodes whose
// tuple appears in the exact query result — the oracle the filter
// soundness audit checks suppress decisions against.
func groundTruthContributors(x *Exec) (map[topology.NodeID]bool, error) {
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	var tuples []finalTuple
	for id := 1; id < x.Dep.N(); id++ {
		if p.nodes[id] != nil {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	_, contrib := exactJoin(x, tuples)
	return contrib, nil
}
