// FADES - FPGA-based framework for the Analysis of the Dependability of
// Embedded Systems (the paper's prototype tool, Section 5).
//
// Emulates transient faults in a synthesized HDL model through run-time
// reconfiguration of the generic FPGA, covering every mechanism of the
// paper's Table 1:
//
//   bit-flip        FFs via the GSR line (slow) or the LSR line (fast);
//                   memory blocks via configuration plane-B writes
//   pulse           LUTs via truth-table recomputation (output / input /
//                   extracted internal line); CB inputs via InvertFFinMux
//   delay           routed lines via fan-out increase (small delays) or
//                   re-routing through a longer path (large delays)
//   indetermination FFs / LUTs via randomly generated final logic values,
//                   optionally re-randomized every cycle of the fault
//
// Every reconfiguration flows through the metered ConfigPort, so the
// emulation-time results (Figure 10 / Table 2) derive from genuine
// configuration traffic plus the board-link cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bits/config_port.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "synth/implement.hpp"

namespace fades::core {

using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::Observation;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::Unit;

enum class BitFlipVia : std::uint8_t { Lsr, Gsr };
/// Delay-fault mechanisms (paper Section 4.3):
///  - Fanout: switch ON an unused pass transistor touching the line; adds a
///    small capacitive delay (Figure 8, "good for small delays").
///  - Reroute: open one hop of the route and close a detour through unused
///    fabric; adds several wire segments of delay.
///  - ShiftRegister: reroute the line through unused flip-flops configured
///    as a shift register (Figure 7), delaying it by whole clock cycles -
///    the paper's "good manner to emulate a large delay in a line".
enum class DelayVia : std::uint8_t { Fanout, Reroute, ShiftRegister };

struct FadesOptions {
  bits::BoardLink link{};
  double fpgaClockHz = 25.0e6;
  /// Host-side work per experiment (trace comparison, bookkeeping).
  double hostPerExperimentSeconds = 0.025;
  /// Replicates the paper's JBits/driver problem: delay faults force a full
  /// configuration-file download instead of partial frames (Section 6.2).
  bool fullDownloadForDelay = true;
  /// Bit-flip mechanism for FFs (the paper proposes LSR as the fast path).
  BitFlipVia bitFlipVia = BitFlipVia::Lsr;
  /// Delay mechanism (Table 1: fan-out = small delays, reroute/shift
  /// register = large). The shift register is the default: its cycle-scale
  /// delays expose the duration-dependent failure rates of Figures 12/15.
  DelayVia delayVia = DelayVia::ShiftRegister;
  /// Re-randomize indetermination values every cycle of the fault duration
  /// (Section 6.2's oscillating variant; much more reconfiguration traffic).
  bool oscillatingIndetermination = false;
  std::vector<std::string> observedOutputs{"p0", "p1"};
  unsigned checkpointInterval = 128;
  bool keepRecords = false;
  /// Session-scoped frame transaction cache in the ConfigPort: repeated
  /// frame reads inside one reconfiguration session are served from a
  /// host-side shadow and dirty frames are written back coalesced at session
  /// end. Pure host-side optimization - metered traffic, modeled seconds,
  /// outcomes and artifacts are bit-identical with the cache on or off.
  bool sessionFrameCache = true;
  /// Deterministic unreliable-link emulation: every metered transfer after
  /// setup can hit a readback CRC mismatch, transient write failure or
  /// timeout, and is retried per `linkRetry`. The fault stream is seeded
  /// per (experiment index, rerun) from the campaign seed, never from the
  /// experiment RNG, and retry cost is charged to retry-only meter fields -
  /// so outcomes and artifacts stay bit-identical to a fault-free run.
  bits::LinkFaultOptions linkFaults{};
  bits::RetryPolicy linkRetry{};
  /// Golden-run instruction trace for root-cause attribution: entry c is the
  /// PC/opcode of the instruction in flight at cycle c (from, e.g.,
  /// mc8051::Iss::tracePcPerCycle). When set and keepRecords is on, every
  /// experiment record carries the PC and opcode under the injection
  /// instant. Shared so device replicas of a sharded campaign reuse one
  /// trace.
  std::shared_ptr<const campaign::InstructionTrace> instructionTrace;
};

/// Register-level effect of a fault, for the paper's Table 4 (one pulse in
/// combinational logic manifesting as a multiple bit-flip).
struct RegisterEffect {
  std::string reg;
  std::uint64_t golden = 0;
  std::uint64_t faulty = 0;
};

/// The FADES injector, and its own campaign engine: campaign::runCampaign
/// drives a caller's tool directly, and every worker of a sharded campaign
/// owns one tool on a private device (fadesEngineFactory).
class FadesTool final : public campaign::CampaignEngine {
 public:
  /// Configures the device with the implementation's bitstream (the one-time
  /// download of Figure 1) and records the golden run.
  FadesTool(fpga::Device& device, const synth::Implementation& impl,
            std::uint64_t runCycles, FadesOptions options = {});
  /// Same, on a device of `deviceSpec` the tool owns - one sharded-campaign
  /// replica, which pays the setup in its own thread.
  FadesTool(const fpga::DeviceSpec& deviceSpec,
            const synth::Implementation& impl, std::uint64_t runCycles,
            FadesOptions options = {});

  // --- fault-location process (device level) ------------------------------
  /// Enumerate targets for a campaign. The returned handles are indices into
  /// the implementation's location map, with sub-addressing packed in for
  /// memory bits.
  std::vector<std::uint32_t> targets(FaultModel model, TargetClass cls,
                                     Unit unit) const;
  std::string targetName(TargetClass cls, std::uint32_t target) const;
  /// Component the target belongs to, from the implementation's hierarchy
  /// annotations (rtl::Builder unit tags survive synthesis onto every site).
  Unit targetUnit(TargetClass cls, std::uint32_t target) const;

  /// The spec's target pool: its explicit pool when set, otherwise the full
  /// enumeration. Deterministic per implementation, so every device replica
  /// of a sharded campaign sees the same pool.
  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override;

  /// Run campaign experiment `index` of `spec` against `pool`. A pure
  /// function of (spec, pool, index, rerun): the experiment's random stream
  /// is derived statelessly from the campaign seed and index, and unusable
  /// fault sites redraw from per-attempt streams. `rerun` counts
  /// experiment-level retries after transient errors; it only reseeds the
  /// link fault stream, so a retried experiment faces fresh link faults but
  /// computes the identical result.
  campaign::ExperimentOutcome runExperimentAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  /// Materialize the outcome of experiment `index` from its fades.prune/1
  /// class representative without touching the device: replays the
  /// experiment's own draws for the planned fields (target, instant,
  /// duration) and clones the measured fields (outcome, costs, detect
  /// cycle) from `representative`. Only valid for experiments a PrunePlan
  /// proved equivalent to the representative.
  campaign::ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, const campaign::ExperimentOutcome& representative)
      override;

  /// Recover from a link failure that may have abandoned a reconfiguration
  /// session mid-write: drop the wedged session and re-download the full
  /// configuration file on a quiet link (fault model suspended, meter reset
  /// afterwards), the way a real host re-initializes a flaky board.
  void recover() override;

  /// `detectCycleOut`, when non-null, receives the first cycle whose
  /// observed outputs diverge from the golden run (-1 if they never do) -
  /// the fault-latency numerator for the analytics histograms.
  Outcome runExperiment(FaultModel model, TargetClass cls,
                        std::uint32_t target, std::uint64_t injectCycle,
                        double durationCycles, common::Rng& rng,
                        double* modeledSeconds = nullptr,
                        bits::TransferMeter* meterOut = nullptr,
                        std::int64_t* detectCycleOut = nullptr);

  /// Table 4 probe: pulse one LUT for a single cycle at `cycle` and report
  /// every architectural register whose value diverges from the golden run
  /// on the next clock edge.
  std::vector<RegisterEffect> multiBitFlipProbe(std::uint32_t lutIndex,
                                                std::uint64_t cycle,
                                                common::Rng& rng);

  /// Extension (paper Section 8, "the occurrence of multiple bit-flips"):
  /// flip `multiplicity` distinct flip-flops simultaneously. The natural
  /// mechanism is the GSR path - one state read-back, one set/reset-mux
  /// rewrite covering all targets, one global pulse - so an MBU costs the
  /// same reconfiguration traffic as a single GSR bit-flip.
  Outcome runMultipleBitFlipExperiment(
      std::span<const std::uint32_t> flopTargets, std::uint64_t injectCycle,
      double* modeledSeconds = nullptr);

  // --- introspection -------------------------------------------------------
  const Observation& golden() const { return golden_; }
  /// Modeled one-time setup cost (bitstream download).
  double setupSeconds() const { return setupSeconds_; }
  const synth::Implementation& implementation() const { return impl_; }
  fpga::Device& device() { return dev_; }
  std::uint64_t runCycles() const { return runCycles_; }
  const FadesOptions& options() const { return opt_; }

 private:
  friend class PermanentFaults;  // the future-work extension shares the rig

  FadesTool(std::unique_ptr<fpga::Device> owned, fpga::Device* device,
            const synth::Implementation& impl, std::uint64_t runCycles,
            FadesOptions options);

  // Injection state carried from inject to removal.
  struct ActiveFault {
    FaultModel model{};
    TargetClass cls{};
    std::uint32_t target = 0;
    std::uint16_t originalTable = 0;
    fpga::CbCoord cb{};
    std::vector<std::pair<std::size_t, bool>> restoreBits;
    bool needsRemoval = false;
    bool indetValue = false;
    /// Sub-cycle faults: injection and removal ride one reconfiguration
    /// pass (Section 6.2: pulses under one cycle took ~755 s instead of
    /// ~1520 s because a single pass suffices).
    bool subCycle = false;
  };

  // Faulty run of one experiment, observed from the injection instant on.
  struct FaultyRun {
    Observation trace;              // output trace, golden prefix included
    std::int64_t detectCycle = -1;  // first diverging cycle; -1 while none
    std::uint64_t stepped = 0;      // device cycles stepped so far
  };

  /// Restore the golden checkpoint at or before `cycle` and replay up to
  /// it; returns the cycles stepped.
  std::uint64_t replayGoldenTo(std::uint64_t cycle);
  /// Replay to the injection instant and seed the trace with the golden
  /// prefix.
  FaultyRun beginFaultyRun(std::uint64_t injectCycle);
  void stepObserved(FaultyRun& run);
  bool backOnGoldenRun(std::uint64_t injectCycle) const;
  /// With the fault inactive: observe to the end of the workload (or to the
  /// first divergence, or back onto the golden run), classify, charge the
  /// final-state readback and account the experiment.
  Outcome finishExperiment(FaultyRun& run, std::uint64_t injectCycle,
                           double* modeledSeconds);

  void inject(ActiveFault& fault, common::Rng& rng, double durationCycles);
  /// Flip every flip-flop in `flops` at once through the global set/reset
  /// line, in one reconfiguration session.
  void gsrFlip(std::span<const std::uint32_t> flops);
  /// Breadth-first detour from routing node `from` to `to` through unused
  /// wire segments, never closing `forbiddenBit` and never entering
  /// `avoid`. Returns the (transistor bit, node) hops walked back from
  /// `to`; empty when no detour exists within the search budget.
  std::vector<std::pair<std::size_t, std::uint32_t>> detour(
      std::uint32_t from, std::uint32_t to, std::size_t forbiddenBit,
      const std::set<std::uint32_t>& avoid) const;
  void remove(ActiveFault& fault);
  void oscillate(ActiveFault& fault, common::Rng& rng);

  /// The planned record fields of a drawn experiment - target name, unit,
  /// golden-run instruction - plus `out`'s outcome and modeled seconds.
  campaign::ExperimentRecord plannedRecord(
      TargetClass cls, const campaign::ExperimentDraw& draw,
      const campaign::ExperimentOutcome& out) const;

  std::uint64_t outputWord() const;
  void captureFinalStateViaPort(Observation& obs, bool chargeOnly);
  void chargeExperimentBaseline();
  double meterSeconds() const;

  std::unique_ptr<fpga::Device> ownedDevice_;  // replicas only
  fpga::Device& dev_;
  const synth::Implementation& impl_;
  std::uint64_t runCycles_;
  FadesOptions opt_;
  bits::ConfigPort port_;
  synth::EmulatedSystem system_;

  Observation golden_;
  std::vector<fpga::DeviceState> checkpoints_;
  double setupSeconds_ = 0;

  // Location-map derived indexes.
  std::vector<unsigned> usedCaptureCols_;  // columns containing used FFs
  std::vector<unsigned> usedBramBlocks_;
  std::unordered_set<std::uint32_t> usedNodes_;  // routing nodes in use
  std::uint64_t fullStateReadBytes_ = 0;         // per final-state readback

  // Registry instruments, resolved once so the per-experiment updates are
  // plain relaxed atomic adds.
  obs::Counter& ctrFailures_;
  obs::Counter& ctrLatents_;
  obs::Counter& ctrSilents_;
  obs::Counter& ctrEarlySilentExits_;
  obs::Counter& ctrCyclesExecuted_;
  obs::Histogram& modeledSecondsHist_;
};

/// `impl`'s device spec with the clock period calibrated just above the
/// fault-free critical path (max arrival + FF setup + 0.35 ns), so that
/// injected delays can push individual paths past setup.
fpga::DeviceSpec delayCalibratedSpec(const synth::Implementation& impl);

/// Engine factory for campaign::ParallelCampaignRunner: every call builds a
/// fresh FadesTool replica on its own device. `impl` is captured by
/// reference and must outlive the runner. `deviceSpec` overrides the implementation's
/// device spec (e.g. a delay-calibrated clock period); pass nothing to use
/// impl.spec.
campaign::EngineFactory fadesEngineFactory(
    const synth::Implementation& impl, std::uint64_t runCycles,
    FadesOptions options, std::optional<fpga::DeviceSpec> deviceSpec = {});

}  // namespace fades::core
