package repro

// /debug/explain: one JSON document that answers "why is this tenant
// slow?" without grepping five metric families. Server.Explain joins,
// for a single tenant, the plan identity (cache fingerprint), the
// autotuner's structural features and verdict, the §4 trial outcome,
// the live-mutation and quarantine state, the shard layout, the
// process-wide kernel attribution, and the SLO watchdog — everything
// the decision-event ring references, resolved to current values.

import (
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/plancache"
	"repro/internal/reorder"
)

// TrialExplain is the §4 online-trial section of a TenantExplain.
type TrialExplain struct {
	// Decided is true once the build's trial (or degradation) settled
	// the pipeline; ReorderingWon reports the verdict.
	Decided       bool `json:"decided"`
	ReorderingWon bool `json:"reordering_won"`
	// ReorderedSeconds/PlainSeconds are the trial's measured wall
	// times (zero until decided, and forever for a degraded pipeline).
	ReorderedSeconds float64 `json:"reordered_seconds"`
	PlainSeconds     float64 `json:"plain_seconds"`
	// Degraded is true when the reordered build was abandoned
	// (budget, cancellation, error, panic); Reason records why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`
}

// PanelExplain is one row panel of a sharded tenant.
type PanelExplain struct {
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Kernel string `json:"kernel"`
}

// TenantExplain is the /debug/explain document for one tenant: the
// full serving decision chain joined into one place.
type TenantExplain struct {
	Tenant string `json:"tenant"`
	// Mode is "online" (§4 trial between reordered and plain plans) or
	// "sharded" (nnz-balanced row panels, each with its own plan).
	Mode string `json:"mode"`

	// PlanFingerprint is the plan-cache identity of the base the
	// tenant is serving from right now (the same fingerprint plan_swap
	// and trial_winner events carry).
	PlanFingerprint string `json:"plan_fingerprint"`
	Epoch           uint64 `json:"epoch"`
	StructEpoch     uint32 `json:"struct_epoch"`
	Rows            int    `json:"rows"`
	Cols            int    `json:"cols"`
	NNZ             int    `json:"nnz"`

	// Kernel is the strategy a call arriving now executes on;
	// KernelVerdict is what ChooseKernel says the features warrant.
	// They differ only under a Config.Kernel override
	// (KernelOverridden) — exactly the disagreement worth surfacing.
	Kernel           string         `json:"kernel"`
	KernelVerdict    string         `json:"kernel_verdict"`
	KernelOverridden bool           `json:"kernel_overridden"`
	Features         KernelFeatures `json:"features"`

	Trial TrialExplain `json:"trial"`

	Live      LiveStats       `json:"live"`
	Integrity integrity.Stats `json:"integrity"`
	// Panels is the row-panel layout of a sharded tenant (empty for
	// online tenants).
	Panels []PanelExplain `json:"panels,omitempty"`

	// Attribution is the process-wide per-kernel execution summary
	// (effective GFLOP/s, GB/s, load imbalance) — shared by all
	// tenants, included so one document carries the whole chain.
	Attribution []kernels.AttributionSummary `json:"kernel_attribution"`

	SLO SLOStatus `json:"slo"`
}

// Explain assembles the /debug/explain document for the tenant
// registered under id (ErrUnknownTenant otherwise). The document is a
// fresh snapshot on every call; fields drawn from different atomics
// are individually consistent, not mutually transactional.
func (s *Server) Explain(id string) (*TenantExplain, error) {
	t, err := s.tenantByID(id)
	if err != nil {
		return nil, err
	}
	st := t.live.state.Load()
	ex := &TenantExplain{
		Tenant:      id,
		Epoch:       st.epoch,
		StructEpoch: st.structEpoch,
		Rows:        st.cur.Rows,
		Cols:        st.cur.Cols,
		NNZ:         st.cur.NNZ(),
		Live:        t.live.Stats(),
		Integrity:   t.integ.Stats(),
		Attribution: kernels.Attribution(),
		SLO:         t.slo.status(),
	}
	cfg := st.base.cfg()
	lead := st.base.lead()
	plan := lead.plan
	switch b := st.base.(type) {
	case *OnlinePipeline:
		ex.Mode = "online"
		variant := plancache.NR
		if lead != b.nr {
			variant = plancache.Full
		}
		ex.PlanFingerprint = plancache.Fingerprint(st.baseM, cfg, variant)
		done, won := b.Decided()
		rrT, nrT := b.TrialTimes()
		deg, derr := b.Degraded()
		ex.Trial = TrialExplain{
			Decided:          done,
			ReorderingWon:    won,
			ReorderedSeconds: rrT.Seconds(),
			PlainSeconds:     nrT.Seconds(),
			Degraded:         deg,
		}
		if derr != nil {
			ex.Trial.Reason = derr.Error()
		}
	case *ShardedPipeline:
		ex.Mode = "sharded"
		// A sharded base has one plan per panel; the fingerprint
		// identifies the fused base matrix (what plan_swap events
		// carry), the features/kernel sections report panel 0 with the
		// full layout in Panels.
		ex.PlanFingerprint = plancache.Fingerprint(st.baseM, cfg, plancache.Full)
		ex.Panels = make([]PanelExplain, b.Panels())
		for i := range ex.Panels {
			lo, hi := b.PanelRange(i)
			ex.Panels[i] = PanelExplain{Lo: lo, Hi: hi, Kernel: b.PanelKernel(i).String()}
		}
	}
	ex.Kernel = plan.Kernel.String()
	ex.Features = plan.Features
	ex.KernelVerdict = reorder.ChooseKernel(plan.Features).String()
	ex.KernelOverridden = plan.Cfg.Kernel != KernelAuto && plan.Cfg.Kernel.Valid()
	return ex, nil
}
