#include "campaign/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/prune_plan.hpp"
#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace fades::campaign {

using common::ErrorKind;
using common::require;

namespace {

unsigned resolveJobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

// ---------------------------------------------------------------------------
// CampaignEngine
// ---------------------------------------------------------------------------

ExperimentOutcome CampaignEngine::synthesizeOutcome(
    const CampaignSpec& /*spec*/, std::span<const std::uint32_t> /*pool*/,
    unsigned /*index*/, const ExperimentOutcome& /*representative*/) {
  throw common::FadesError(ErrorKind::InvalidArgument,
                           "this campaign engine does not support "
                           "fades.prune/1 plans");
}

// ---------------------------------------------------------------------------
// ProgressTracker
// ---------------------------------------------------------------------------

ProgressTracker::ProgressTracker(std::string model, std::uint64_t total,
                                 std::uint64_t interval)
    : model_(std::move(model)),
      total_(total),
      interval_(interval),
      start_(std::chrono::steady_clock::now()),
      gauge_(obs::Registry::global().gauge("campaign.progress_pct")) {
  gauge_.set(0.0);
}

void ProgressTracker::record(const ExperimentOutcome& outcome) {
  if (interval_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  if (outcome.quarantined) {
    ++quarantined_;
  } else {
    switch (outcome.outcome) {
      case Outcome::Failure: ++failures_; break;
      case Outcome::Latent: ++latents_; break;
      case Outcome::Silent: ++silents_; break;
    }
    modeledSum_ += outcome.modeledSeconds;
  }
  if (done_ % interval_ != 0 && done_ != total_) return;
  emitLocked();
}

void ProgressTracker::heartbeat() {
  std::lock_guard<std::mutex> lock(mu_);
  emitLocked();
}

void ProgressTracker::emitLocked() {
  gauge_.set(total_ == 0 ? 100.0 : 100.0 * done_ / total_);
  // ETA from observed rates: wall-clock extrapolates elapsed time per
  // completed experiment, modeled extrapolates the accumulated per-fault
  // board seconds (quarantined experiments carry no modeled cost, so they
  // feed the wall rate only). With no completions - a heartbeat firing
  // before the first experiment lands - there is no rate to extrapolate,
  // and the fields carry a literal null instead of a division by zero.
  const std::uint64_t remaining = total_ > done_ ? total_ - done_ : 0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const bool haveWallRate = done_ != 0 && elapsed > 0.0;
  const double etaWall =
      haveWallRate ? elapsed / static_cast<double>(done_) *
                         static_cast<double>(remaining)
                   : 0.0;
  const std::uint64_t tallied = failures_ + latents_ + silents_;
  const double etaModeled =
      tallied == 0 ? 0.0
                   : modeledSum_ / static_cast<double>(tallied) *
                         static_cast<double>(remaining);
  FADES_LOG(Info) << "campaign progress" << obs::kv("model", model_)
                  << obs::kv("done", done_) << obs::kv("total", total_)
                  << obs::kv("failures", failures_)
                  << obs::kv("latents", latents_)
                  << obs::kv("silents", silents_)
                  << obs::kv("quarantined", quarantined_)
                  << obs::kv("modeled_s", modeledSum_)
                  << (haveWallRate ? obs::kv("eta_wall_s", etaWall)
                                   : obs::kv("eta_wall_s", "null"))
                  << (tallied != 0 ? obs::kv("eta_modeled_s", etaModeled)
                                   : obs::kv("eta_modeled_s", "null"));
}

// ---------------------------------------------------------------------------
// runExperimentWithRetry
// ---------------------------------------------------------------------------

ExperimentOutcome runExperimentWithRetry(CampaignEngine& engine,
                                         const CampaignSpec& spec,
                                         std::span<const std::uint32_t> pool,
                                         unsigned index, unsigned attempts,
                                         obs::Counter& quarantineCounter) {
  const unsigned budget = std::max(1u, attempts);
  for (unsigned rerun = 0;; ++rerun) {
    try {
      ExperimentOutcome outcome =
          engine.runExperimentAt(spec, pool, index, rerun);
      outcome.index = index;
      outcome.attempts = rerun + 1;
      return outcome;
    } catch (const common::FadesError& err) {
      if (!common::isTransientError(err.kind())) throw;
      engine.recover();
      if (rerun + 1 >= budget) {
        ExperimentOutcome outcome;
        outcome.index = index;
        outcome.quarantined = true;
        outcome.failureKind = err.kind();
        outcome.failureMessage = err.what();
        outcome.attempts = rerun + 1;
        quarantineCounter.inc();
        return outcome;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelCampaignRunner
// ---------------------------------------------------------------------------

ParallelCampaignRunner::ParallelCampaignRunner(EngineFactory factory,
                                               ParallelOptions options)
    : factory_(std::move(factory)),
      opt_(options),
      jobs_(resolveJobs(options.jobs)) {
  require(static_cast<bool>(factory_), ErrorKind::InvalidArgument,
          "parallel campaign runner needs an engine factory");
}

void ParallelCampaignRunner::ensureEngines(unsigned count) {
  if (engines_.size() >= count) return;
  const std::size_t have = engines_.size();
  engines_.resize(count);
  // Build the missing replicas concurrently: each factory call pays the
  // one-time setup (bitstream download + golden run), so replica setup
  // scales with the worker count instead of serializing in front of it.
  std::vector<std::thread> builders;
  std::mutex errMu;
  std::exception_ptr firstError;
  for (std::size_t w = have; w < count; ++w) {
    builders.emplace_back([this, w, &errMu, &firstError] {
      try {
        engines_[w] = factory_();
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMu);
        if (!firstError) firstError = std::current_exception();
      }
    });
  }
  for (auto& t : builders) t.join();
  if (firstError) {
    engines_.resize(have);
    std::rethrow_exception(firstError);
  }
  for (const auto& engine : engines_) {
    require(engine != nullptr, ErrorKind::InvalidArgument,
            "engine factory returned null");
  }
}

// ---------------------------------------------------------------------------
// The campaign loop
// ---------------------------------------------------------------------------

namespace {

/// The one campaign loop: a worker per engine in `engines` (the calling
/// thread when there is only one) leases experiment indices, runs them with
/// the retry/quarantine discipline, and the outcomes are folded in index
/// order. runCampaign and ParallelCampaignRunner::run differ only in who
/// owns the engines.
CampaignResult runOnEngines(std::span<CampaignEngine* const> engines,
                            const CampaignSpec& spec,
                            const ParallelOptions& opt) {
  const unsigned workers = static_cast<unsigned>(engines.size());
  obs::Span campaignSpan{"campaign",
                         {{"model", toString(spec.model)},
                          {"targets", toString(spec.targets)},
                          {"jobs", std::to_string(workers)}}};
  const std::vector<std::uint32_t> pool = engines[0]->enumeratePool(spec);

  std::vector<ExperimentOutcome> outcomes(spec.experiments);
  ProgressTracker progress(toString(spec.model), spec.experiments,
                           opt.progressInterval);

  // Checkpoint/resume: journaled outcomes are folded back in without being
  // re-run, so a resumed campaign produces artifacts byte-identical to an
  // uninterrupted one (every outcome is a pure function of (spec, index)
  // and the fold order is index order either way).
  std::vector<char> alreadyDone(spec.experiments, 0);
  if (opt.journal != nullptr) {
    opt.journal->open(spec, opt.resume);
    std::uint64_t resumed = 0;
    for (const auto& [index, outcome] : opt.journal->completed()) {
      if (index >= spec.experiments) continue;
      outcomes[index] = outcome;
      alreadyDone[index] = 1;
      ++resumed;
      progress.record(outcome);
    }
    if (resumed != 0) {
      obs::Registry::global()
          .counter("campaign.resumed_experiments")
          .add(resumed);
      FADES_LOG(Info) << "campaign resume"
                      << obs::kv("journal", opt.journal->path())
                      << obs::kv("resumed", resumed)
                      << obs::kv("total", spec.experiments);
    }
  }

  // Fault-list pruning: collapsed members never reach the worker loop.
  // They are pre-marked done (unless the journal already materialized them
  // on a previous run) and synthesized from their representatives after the
  // workers finish, so only the plan's executedCount() experiments execute.
  std::vector<char> fromJournal;
  if (opt.prunePlan != nullptr) {
    const PrunePlan& plan = *opt.prunePlan;
    plan.validate();
    require(specKey(plan.spec) == specKey(spec), ErrorKind::InvalidArgument,
            "prune plan was derived for a different campaign spec");
    require(plan.poolSize == pool.size(), ErrorKind::InvalidArgument,
            "prune plan was derived for a different target pool");
    fromJournal = alreadyDone;
    for (const auto& cls : plan.classes) {
      for (const std::uint64_t m : cls.members) alreadyDone[m] = 1;
    }
  }

  const unsigned attempts = std::max(1u, opt.experimentAttempts);
  // Lease width: bit-parallel engines claim whole waves of contiguous
  // indices (wave composition cannot change outcomes - every experiment
  // stays a pure function of its index - so block leasing only changes
  // wall-clock, like everything else in this runner).
  const unsigned waveWidth = std::max(1u, engines[0]->waveWidth());
  obs::Counter& cQuarantined =
      obs::Registry::global().counter("campaign.quarantined");
  std::atomic<unsigned> next{0};
  std::atomic<bool> abort{false};
  std::mutex errMu;
  std::exception_ptr firstError;

  auto workerLoop = [&](unsigned w) {
    try {
      std::vector<unsigned> pending;
      while (!abort.load(std::memory_order_relaxed)) {
        const unsigned base = next.fetch_add(waveWidth,
                                             std::memory_order_relaxed);
        if (base >= spec.experiments) break;
        const unsigned end = std::min(base + waveWidth, spec.experiments);
        pending.clear();
        for (unsigned e = base; e < end; ++e) {
          if (!alreadyDone[e]) pending.push_back(e);
        }
        if (pending.empty()) continue;
        // Wave path first: one batched call for the lease (resume gaps
        // just shrink the wave). A transient error drops the whole lease
        // down to the per-experiment retry/quarantine path below.
        bool waveDone = false;
        if (waveWidth > 1) {
          try {
            auto outs = engines[w]->runWaveAt(spec, pool, pending, 0);
            require(outs.size() == pending.size(),
                    ErrorKind::InvalidArgument,
                    "engine wave returned wrong outcome count");
            for (std::size_t i = 0; i < pending.size(); ++i) {
              outs[i].index = pending[i];
              outs[i].attempts = 1;
              outcomes[pending[i]] = std::move(outs[i]);
              if (opt.journal != nullptr) {
                opt.journal->append(outcomes[pending[i]]);
              }
              progress.record(outcomes[pending[i]]);
            }
            waveDone = true;
          } catch (const common::FadesError& err) {
            if (!common::isTransientError(err.kind())) throw;
            engines[w]->recover();
          }
        }
        if (waveDone) continue;
        // Experiment-level isolation: transient errors re-run the
        // experiment (with a fresh link fault stream via `rerun`) after
        // restoring the replica; exhausting the attempt budget quarantines
        // this one experiment. Fatal errors still abort the campaign.
        for (const unsigned e : pending) {
          if (abort.load(std::memory_order_relaxed)) break;
          const ExperimentOutcome outcome = runExperimentWithRetry(
              *engines[w], spec, pool, e, attempts, cQuarantined);
          outcomes[e] = outcome;
          if (opt.journal != nullptr) opt.journal->append(outcome);
          progress.record(outcome);
        }
      }
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(errMu);
      if (!firstError) firstError = std::current_exception();
    }
  };

  if (workers == 1) {
    workerLoop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(workerLoop, w);
    for (auto& t : threads) t.join();
  }
  if (firstError) std::rethrow_exception(firstError);

  // Materialize the collapsed members. Synthesis is cheap (no execution),
  // so running it single-threaded on engine 0 after the join keeps the
  // journal append order race-free; a quarantined representative has no
  // result to clone, so its members fall back to real execution.
  if (opt.prunePlan != nullptr) {
    obs::Counter& cPruned =
        obs::Registry::global().counter("campaign.pruned_experiments");
    for (const auto& cls : opt.prunePlan->classes) {
      const ExperimentOutcome& rep = outcomes[cls.representative];
      for (const std::uint64_t m : cls.members) {
        if (fromJournal[m]) continue;  // resumed from a previous run
        const unsigned index = static_cast<unsigned>(m);
        if (rep.quarantined) {
          outcomes[m] = runExperimentWithRetry(*engines[0], spec, pool,
                                               index, attempts, cQuarantined);
        } else {
          outcomes[m] = engines[0]->synthesizeOutcome(spec, pool, index, rep);
          outcomes[m].index = m;
          outcomes[m].attempts = 0;
          cPruned.inc();
        }
        if (opt.journal != nullptr) opt.journal->append(outcomes[m]);
        progress.record(outcomes[m]);
      }
    }
  }

  // Merge in experiment-index order whatever the worker count, so sums and
  // stats come out bit-identical.
  CampaignResult result;
  result.spec = spec;
  for (const auto& outcome : outcomes) result.fold(outcome);
  return result;
}

}  // namespace

CampaignResult runCampaign(CampaignEngine& engine, const CampaignSpec& spec,
                           const ParallelOptions& options) {
  CampaignEngine* const engines[] = {&engine};
  return runOnEngines(engines, spec, options);
}

CampaignResult ParallelCampaignRunner::run(const CampaignSpec& spec) {
  const unsigned workers =
      std::max(1u, std::min(jobs_, std::max(1u, spec.experiments)));
  ensureEngines(workers);

  std::vector<CampaignEngine*> engines;
  engines.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) engines.push_back(engines_[w].get());
  return runOnEngines(engines, spec, opt_);
}

}  // namespace fades::campaign
