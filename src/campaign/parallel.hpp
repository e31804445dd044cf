// Sharded campaign execution.
//
// The paper's value proposition is throughput - emulation beats simulation
// because the FPGA grinds through experiments faster (Figure 10 / Table 2) -
// and fault-injection campaigns are embarrassingly parallel: every
// experiment replays the workload from a checkpoint on an otherwise pristine
// device, so N workers with N device replicas multiply throughput without
// touching the methodology. This follows the autonomous-emulation line of
// work (Lopez-Ongil et al.), where many independent fault experiments run
// concurrently against replicas of the same implementation.
//
// Determinism contract: experiment i of a campaign is a pure function of
// (spec, i) - target choice, injection instant, duration and every in-fault
// random draw come from Rng(common::streamSeed(spec.seed, ...)) - and the
// merge folds per-experiment outcomes in index order through
// CampaignResult::fold at every worker count. Outcome tallies, per-experiment
// records and the modeled CostBreakdown are therefore bit-identical for any
// shard count and any scheduling order; only wall-clock changes. Modeled
// seconds model ONE board: sharding never reduces them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "obs/metrics.hpp"

namespace fades::campaign {

class CampaignJournal;
struct PrunePlan;

/// One worker's private campaign engine. Implementations own whatever
/// replica state they need (a device plus the tool driving it) and run any
/// experiment of a spec by index, independently of all other indices.
class CampaignEngine {
 public:
  virtual ~CampaignEngine() = default;

  /// Enumerate the spec's target pool. Must be deterministic: every replica
  /// built from the same implementation returns the same pool.
  virtual std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) = 0;

  /// Run experiment `index` of the spec against `pool`. Must depend only on
  /// (spec, pool, index, rerun) - never on which experiments ran before.
  /// `rerun` counts experiment-level retries after transient errors; engines
  /// with an unreliable-link model fold it into the link fault stream seed
  /// so a retried experiment draws fresh link faults (and can succeed)
  /// while staying a pure function of its arguments.
  virtual ExperimentOutcome runExperimentAt(const CampaignSpec& spec,
                                            std::span<const std::uint32_t> pool,
                                            unsigned index, unsigned rerun) = 0;

  /// Restore the replica to a known-good state after a transient failure
  /// left it suspect (e.g. a link fault mid-reconfiguration abandoned a
  /// half-written configuration plane). Called before every retry and
  /// before continuing past a quarantined experiment. Default: no-op, for
  /// engines whose runExperimentAt cannot leave residue behind.
  virtual void recover() {}

  /// Preferred lease width: how many experiments this engine likes to run
  /// per batch. Bit-parallel engines return their lane count (the runner
  /// then leases contiguous index blocks of this size); the default of 1
  /// keeps the classic per-experiment work stealing.
  virtual unsigned waveWidth() const { return 1; }

  /// Materialize experiment `index` as a synthesized outcome cloned from
  /// its fades.prune/1 equivalence-class representative: measured fields
  /// (outcome, modeled cost, detect cycle) are the representative's, while
  /// the planned fields (target name, injection instant, duration, pc,
  /// opcode) are re-derived for `index` so the record reads exactly as if
  /// the member had run. Engines that support pruning override this; the
  /// default refuses, which makes --prune a hard error on tools whose
  /// equivalence the analysis cannot vouch for.
  virtual ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, const ExperimentOutcome& representative);

  /// Run the experiments named by `indices` as one batch. Every outcome
  /// must still be a pure function of (spec, pool, index, rerun) - batching
  /// may only change wall-clock, never results - so the default simply
  /// loops runExperimentAt. The runner fills in ExperimentOutcome::index
  /// and attempts from `indices`.
  virtual std::vector<ExperimentOutcome> runWaveAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) {
    std::vector<ExperimentOutcome> out;
    out.reserve(indices.size());
    for (const unsigned e : indices) {
      out.push_back(runExperimentAt(spec, pool, e, rerun));
    }
    return out;
  }
};

/// Builds one engine replica; called once per worker, concurrently. The
/// factory must be safe to invoke from multiple threads at the same time
/// (replicas share only immutable inputs such as the implementation).
using EngineFactory = std::function<std::unique_ptr<CampaignEngine>()>;

/// The canonical experiment-level fault-tolerance discipline: run experiment
/// `index`, rerunning on transient errors (LinkError / InjectionError) with
/// engine.recover() between attempts and a fresh `rerun` stream each time;
/// exhausting `attempts` yields a quarantined outcome instead of throwing.
/// Fatal error kinds (and non-FadesError exceptions) propagate. Shared by
/// ParallelCampaignRunner's worker loop and the distributed worker daemon,
/// so an experiment produces the same outcome - including its quarantine
/// decision - no matter which execution plane ran it.
ExperimentOutcome runExperimentWithRetry(CampaignEngine& engine,
                                         const CampaignSpec& spec,
                                         std::span<const std::uint32_t> pool,
                                         unsigned index, unsigned attempts,
                                         obs::Counter& quarantineCounter);

/// Campaign-level progress heartbeat: one `campaign.progress_pct` gauge and
/// one structured log line per interval for the whole campaign, regardless
/// of how many shards feed it. Each heartbeat line carries an ETA - both
/// remaining wall-clock seconds (observed completion rate) and remaining
/// modeled board seconds (the CostBreakdown rate accumulated so far) - so an
/// operator can tell "how long until this terminal is free" apart from "how
/// much emulation time is still ahead". Thread-safe; with interval 0 only
/// the gauge reset happens and record() is a cheap no-op.
class ProgressTracker {
 public:
  /// 64-bit totals: distributed campaigns legitimately exceed 2^31
  /// experiments, and every rate below divides by 64-bit counts so the
  /// heartbeat math cannot overflow or divide by zero.
  ProgressTracker(std::string model, std::uint64_t total,
                  std::uint64_t interval);

  void record(const ExperimentOutcome& outcome);

  /// Emit a progress line right now, even with zero completions - the
  /// time-driven heartbeat of the campaign service coordinator. With no
  /// completed experiments yet there is no observed rate, so the line
  /// carries eta_wall_s=null instead of a fabricated (or divide-by-zero)
  /// estimate.
  void heartbeat();

 private:
  void emitLocked();

  std::mutex mu_;
  std::string model_;
  std::uint64_t total_;
  std::uint64_t interval_;
  std::uint64_t done_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t latents_ = 0;
  std::uint64_t silents_ = 0;
  std::uint64_t quarantined_ = 0;
  double modeledSum_ = 0;
  std::chrono::steady_clock::time_point start_;
  obs::Gauge& gauge_;
};

struct ParallelOptions {
  /// Worker (and device-replica) count; 0 = one per hardware thread.
  unsigned jobs = 1;
  /// Campaign heartbeat every N experiments (campaign-wide, not per shard);
  /// 0 disables it.
  unsigned progressInterval = 0;
  /// Runs an experiment gets before a persistent transient error (LinkError,
  /// InjectionError) quarantines it instead of aborting the campaign.
  /// Fatal errors (and non-FadesError exceptions) always abort.
  unsigned experimentAttempts = 3;
  /// Optional crash-safe checkpoint journal. When set, run() opens it for
  /// the campaign spec, appends every completed outcome, and - with resume
  /// also set - folds in previously journaled outcomes instead of
  /// re-running them. Not owned.
  CampaignJournal* journal = nullptr;
  /// Skip experiments already committed to `journal` (requires journal).
  bool resume = false;
  /// Optional fades.prune/1 plan. When set, collapsed members are not
  /// executed: after the representatives finish, each member is
  /// materialized through CampaignEngine::synthesizeOutcome (flagged
  /// pruned_from), journaled like a real outcome, and folded in index
  /// order as usual - so the campaign result is byte-identical in outcome
  /// totals while only the plan's executedCount() experiments run. The
  /// plan's spec must match the spec passed to run() (specKey equality).
  /// Not owned; must outlive the runner's run() calls.
  const PrunePlan* prunePlan = nullptr;
};

/// Run a campaign on one engine the caller owns: the runner's loop at one
/// job (resume, pruning, retry/quarantine and progress as configured in
/// `options`; `options.jobs` is ignored). The engine keeps its state - device,
/// golden run, checkpoints - across calls, so repeated campaigns on one tool
/// pay its setup once. Results are byte-identical to ParallelCampaignRunner
/// at any job count.
CampaignResult runCampaign(CampaignEngine& engine, const CampaignSpec& spec,
                           const ParallelOptions& options = {});

/// Partitions a campaign's experiment list across worker threads, each
/// owning its own engine replica, and merges the per-experiment outcomes in
/// index order. Replicas are built lazily on first run() - concurrently, so
/// the one-time setup cost (bitstream download + golden run) is also paid in
/// parallel - and are reused by subsequent run() calls.
class ParallelCampaignRunner {
 public:
  explicit ParallelCampaignRunner(EngineFactory factory,
                                  ParallelOptions options = {});

  /// Resolved worker count (after 0 -> hardware concurrency).
  unsigned jobs() const { return jobs_; }

  CampaignResult run(const CampaignSpec& spec);

 private:
  void ensureEngines(unsigned count);

  EngineFactory factory_;
  ParallelOptions opt_;
  unsigned jobs_;
  std::vector<std::unique_ptr<CampaignEngine>> engines_;
};

}  // namespace fades::campaign
