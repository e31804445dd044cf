// VFIT - the VHDL-simulator fault-injection baseline (paper Section 6).
//
// VFIT applies the "simulator commands" technique: the model executes on an
// event-driven simulator and faults are injected by forcing signals and
// depositing register/memory values. Its execution time is dominated by
// simulating the model on the host CPU, which is why the paper reports very
// similar times for every fault type and length (Section 6.2); the cost
// model reproduces that behaviour from real counted simulation events.
//
// Like the original tool, delay faults are NOT supported: the model would
// need explicit generic delay clauses, which it does not have (the paper
// could not run the delay comparison either, Table 3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace fades::vfit {

using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::Observation;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::FlopId;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;
using netlist::Unit;

struct VfitOptions {
  /// Host CPU cost per simulation event (gate evaluation / state update).
  /// Calibrated so one full workload simulation lands near the paper's
  /// 7.2 s-per-experiment VFIT average on a 2006-class workstation.
  double secondsPerEvent = 9.6e-7;
  /// Simulator-command (force/release/deposit) scripting overhead.
  double secondsPerCommand = 0.0005;
  /// Fixed per-experiment cost: restart, trace set-up, result dump.
  double secondsFixedPerExperiment = 0.35;
  /// Output ports whose traces define Failure.
  std::vector<std::string> observedOutputs = {"p0", "p1"};
  /// Host-side replay checkpoint spacing (pure wall-clock optimization; does
  /// not affect modeled cost, which always charges the full run).
  unsigned checkpointInterval = 128;
  /// Re-randomize indetermination values every cycle of the fault.
  bool oscillatingIndetermination = false;
  /// Keep per-experiment records in the campaign result.
  bool keepRecords = false;
  /// Execution engine for campaign experiments. EventDriven replays each
  /// experiment from a golden checkpoint on the event-driven simulator;
  /// Compiled packs up to 63 experiments per 64-lane bit-parallel wave.
  /// Either way outcomes, records and modeled costs are bit-identical: the
  /// golden run (and therefore the modeled cost calibration) always comes
  /// from the event-driven engine, and the CompiledEquivalence suite pins
  /// the fault semantics to it.
  sim::EngineKind engine = sim::EngineKind::EventDriven;
  /// Prefix for the obs counters this tool bumps ("<prefix>.commands",
  /// "<prefix>.experiments") and its campaign span. The autonomous backend
  /// reuses VfitTool as its semantic engine under its own prefix, so the two
  /// injectors stay separable in the metrics snapshot.
  std::string metricsPrefix = "vfit";
};

/// The VFIT injector, and its own campaign engine: with the compiled engine
/// selected it leases whole waves (waveWidth() = 63) and runs them
/// bit-parallel; outcomes stay bit-identical to the event-driven engine at
/// any --jobs.
class VfitTool final : public campaign::CampaignEngine {
 public:
  /// The netlist is the HDL model; runCycles is the workload length.
  VfitTool(const Netlist& netlist, std::uint64_t runCycles,
           VfitOptions options = {});

  bool supports(FaultModel m) const { return m != FaultModel::Delay; }

  // --- fault-location process (model level) -----------------------------
  std::vector<FlopId> flopTargets(Unit unit) const;
  /// Named combinational signals (HDL-level view: only signals that exist
  /// by name in the model, the way a VHDL tool sees them).
  std::vector<NetId> signalTargets(Unit unit) const;
  /// Writable memories (ROMs excluded) of `unit`, like FADES' RAM targets.
  std::vector<RamId> ramTargets(Unit unit) const;

  /// Deterministic target enumeration for a spec (the fault-location
  /// process); shared by the campaign runner and the bit-parallel wave path.
  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override;

  /// Campaign experiment `index` as a pure function of (spec, pool, index),
  /// on the event-driven engine. This is the per-index unit the runner
  /// shards and the reference the compiled wave path must match
  /// field-for-field. No link model on the simulator side: `rerun` is
  /// ignored, reruns replay identically.
  campaign::ExperimentOutcome runExperimentAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  /// Experiments per compiled wave: 63 faulty lanes; lane 0 stays golden
  /// and is checked against the event-driven golden run every wave.
  static constexpr unsigned kWaveExperiments =
      sim::CompiledSimulator::kLanes - 1;

  /// kWaveExperiments on the compiled engine, 1 on the event-driven one.
  unsigned waveWidth() const override;

  /// Run the experiments named by `indices` (at most kWaveExperiments) in
  /// one bit-parallel pass on the compiled engine. Lane assignment is
  /// irrelevant to the result - lanes are independent machines - so partial
  /// waves and arbitrary index subsets return exactly what runExperimentAt
  /// returns per index. The event-driven engine runs them one by one.
  std::vector<campaign::ExperimentOutcome> runWaveAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) override;

  /// Single experiment; exposed for tests. Plans the fault from the given
  /// draw and `rng` exactly as a campaign experiment would, then runs it on
  /// the event-driven engine. `commandsOut` reports how many simulator
  /// commands (force / release / deposit) the injection issued.
  Outcome runExperiment(FaultModel model, TargetClass targets,
                        std::uint32_t targetIndex, std::uint64_t injectCycle,
                        double durationCycles, common::Rng& rng,
                        double* modeledSeconds = nullptr,
                        unsigned* commandsOut = nullptr);

  const Observation& golden() const { return golden_; }

  /// The fault script of one experiment, and the only place VFIT decides
  /// it: the campaign draw plus the active window, the simulator-command
  /// count and the indetermination value of every active cycle. The
  /// event-driven path executes it command by command, the compiled wave
  /// path lane by lane. Public because the autonomous backend re-meters the
  /// same plan (command count, window) under its own cost model.
  struct LanePlan : campaign::ExperimentDraw {
    unsigned index = 0;
    std::uint64_t window = 0;  // active cycles, clipped to the workload end
    unsigned commands = 0;
    std::vector<std::uint8_t> values;  // indetermination value per cycle
  };
  /// Plan campaign experiment `index`: campaign::drawExperiment, then the
  /// fault script from the same stream.
  LanePlan planExperiment(const CampaignSpec& spec,
                          std::span<const std::uint32_t> pool,
                          unsigned index) const;
  /// planExperiment for each of `indices`, in order.
  std::vector<LanePlan> planWave(const CampaignSpec& spec,
                                 std::span<const std::uint32_t> pool,
                                 std::span<const unsigned> indices) const;
  /// Execute `plan` on the event-driven engine and meter it.
  campaign::ExperimentOutcome runPlan(const CampaignSpec& spec,
                                      const LanePlan& plan);
  /// Execute already-built plans: one bit-parallel pass on the compiled
  /// engine (at most kWaveExperiments), runPlan one by one on the
  /// event-driven engine. runWaveAt is planWave plus this, so the
  /// autonomous backend plans a wave once and re-meters from the same
  /// plans.
  std::vector<campaign::ExperimentOutcome> runWave(
      const CampaignSpec& spec, std::span<const LanePlan> plans);

  /// Materialize experiment `index` from its fades.prune/1 class
  /// representative without simulating: the cost model is a pure function
  /// of the experiment's own plan (re-derived here), and the behavioral
  /// outcome is cloned from the representative the plan proved equivalent.
  campaign::ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, const campaign::ExperimentOutcome& representative)
      override;

 private:
  Unit targetUnit(const CampaignSpec& spec, std::uint32_t target) const;
  /// The fault script for `draw`: validates the model and instant, then
  /// takes the window and value draws from `rng`.
  LanePlan planFault(FaultModel model, TargetClass targets,
                     const campaign::ExperimentDraw& draw,
                     common::Rng& rng) const;
  /// Run `plan` on the event-driven simulator from the nearest golden
  /// checkpoint and classify the faulty run.
  Outcome execute(FaultModel model, TargetClass targets, const LanePlan& plan);
  campaign::ExperimentOutcome makeOutcome(const CampaignSpec& spec,
                                          const LanePlan& plan,
                                          Outcome outcome) const;
  std::uint64_t outputWord() const;
  void captureFinalState(Observation& obs) const;

  const Netlist& nl_;
  std::uint64_t runCycles_;
  VfitOptions opt_;
  std::unique_ptr<sim::Simulator> sim_;
  /// Built only when opt_.engine == Compiled; campaign waves run here.
  std::unique_ptr<sim::CompiledSimulator> csim_;
  /// Observed output nets with their packed bit positions (outputWord
  /// layout: 16 bits per observed port), cached for the wave inner loop.
  std::vector<std::pair<unsigned, std::uint32_t>> obsBits_;

  Observation golden_;
  std::vector<sim::Snapshot> checkpoints_;  // every checkpointInterval cycles
  std::uint64_t goldenEvents_ = 0;
  double goldenSeconds_ = 0;
};

/// Factory for the parallel campaign runner: every worker gets its own
/// VfitTool replica (each pays the golden run in its own thread). The
/// netlist reference must outlive the runner.
campaign::EngineFactory vfitEngineFactory(const Netlist& netlist,
                                          std::uint64_t runCycles,
                                          VfitOptions options = {});

}  // namespace fades::vfit
