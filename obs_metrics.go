package repro

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Online-strategy metrics live in the process-wide registry: the trial
// is a property of the workload (which plan wins on this hardware for
// these shapes), so aggregating across pipelines is what an operator
// wants on a dashboard. Per-request serving metrics, by contrast, are
// per-Server (see NewServer).
var (
	onlineTrialsReordered = obs.Default().Counter("spmmrr_online_trials_total",
		"Build-time §4 trials decided, by winning plan.", obs.L("winner", "reordered"))
	onlineTrialsPlain = obs.Default().Counter("spmmrr_online_trials_total",
		"Build-time §4 trials decided, by winning plan.", obs.L("winner", "plain"))
	onlineWinnerFlips = obs.Default().Counter("spmmrr_online_winner_flips_total",
		"Consecutive trial decisions that disagreed with the previous one.")
	onlineDegraded = obs.Default().Counter("spmmrr_online_degraded_total",
		"Background reordered builds or trials abandoned (budget, cancellation, error, panic).")
	onlineTrialRRSeconds = obs.Default().GaugeFloat("spmmrr_online_trial_reordered_seconds",
		"Reordered-plan wall time measured by the most recent trial.")
	onlineTrialNRSeconds = obs.Default().GaugeFloat("spmmrr_online_trial_plain_seconds",
		"No-reorder-plan wall time measured by the most recent trial.")

	// lastTrialWinner tracks the previous decision across all pipelines
	// in the process: 0 = none yet, 1 = reordered, 2 = plain.
	lastTrialWinner atomic.Int32

	// Kernel-choice counters, one per strategy, bumped when a pipeline
	// is constructed: the distribution shows which kernels the autotuner
	// actually selects on the workload's matrices.
	kernelChoiceRowWise = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "rowwise"))
	kernelChoiceMerge = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "merge"))
	kernelChoiceELLHybrid = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "ellhybrid"))
	kernelChoiceASpT = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "aspt"))

	// Row-panel sharding: the panel-count distribution shows how the
	// nnz threshold actually splits the workload's matrices (all-ones =
	// sharding configured but never triggering).
	shardPanelsBuilt = obs.Default().Histogram("spmmrr_shard_panels",
		"Row panels per constructed ShardedPipeline.",
		obs.ExponentialBuckets(1, 2, 8))
)

// recordShardPanels publishes a constructed sharded pipeline's panel
// count to the process registry.
func recordShardPanels(n int) { shardPanelsBuilt.Observe(float64(n)) }

// recordKernelChoice publishes a constructed pipeline's kernel to the
// process registry. Unknown values (a hand-built plan) count as the
// ASpT fallback the executor will actually take.
func recordKernelChoice(k Kernel) {
	switch k {
	case KernelRowWise:
		kernelChoiceRowWise.Inc()
	case KernelMerge:
		kernelChoiceMerge.Inc()
	case KernelELLHybrid:
		kernelChoiceELLHybrid.Inc()
	default:
		kernelChoiceASpT.Inc()
	}
}

// recordTrial publishes one decided trial to the process registry.
func recordTrial(reorderedWon bool, rrTime, nrTime time.Duration) {
	cur := int32(2)
	if reorderedWon {
		cur = 1
		onlineTrialsReordered.Inc()
	} else {
		onlineTrialsPlain.Inc()
	}
	if prev := lastTrialWinner.Swap(cur); prev != 0 && prev != cur {
		onlineWinnerFlips.Inc()
	}
	onlineTrialRRSeconds.SetDuration(rrTime)
	onlineTrialNRSeconds.SetDuration(nrTime)
}
