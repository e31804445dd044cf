// Permanent fault models - the paper's announced future work (Section 8):
// "the extension of this framework to cover a set of typical permanent
// faults that have not been used for fault emulation of VLSI systems yet,
// such as short, open-line, bridging and stuck-open faults."
//
// All four are emulated with the same run-time reconfiguration machinery:
//
//   stuck-at-0/1  LUT rewritten to a constant (combinational), or the FF's
//                 local set/reset held asserted (sequential)
//   open-line     a connection-box pass transistor of a routed net switched
//                 OFF: downstream sinks float to the weak '0' level
//   stuck-open    like open-line, but a programmable-matrix switch on the
//                 path opens (splits the net mid-route)
//   bridging      an extra pass transistor closes between two DIFFERENT
//                 routed nets; the short resolves as dominant-AND logic
//
// Permanent faults are present from power-on and never removed during the
// run; the device configuration is restored between experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fades.hpp"

namespace fades::core {

enum class PermanentFaultModel : std::uint8_t {
  StuckAt0,
  StuckAt1,
  OpenLine,
  StuckOpen,
  Bridging,
};
const char* toString(PermanentFaultModel m);

/// Permanent-fault campaign engine on top of a FadesTool (shares its
/// device, golden run, cost model and configuration port). The fault model
/// is fixed per engine; campaign::runCampaign drives it like any other
/// injector, with the CampaignSpec's experiments, seed, unit and target
/// pool (its model, target class and band do not apply). Experiments keep
/// no per-experiment records.
class PermanentFaults final : public campaign::CampaignEngine {
 public:
  PermanentFaults(FadesTool& tool, PermanentFaultModel model)
      : tool_(tool), model_(model) {}

  /// Target handles: LUT site indices for stuck-at, route indices for the
  /// line faults. FF stuck-at targets are flop sites encoded with the MSB
  /// set.
  std::vector<std::uint32_t> targets(Unit unit) const;

  Outcome runExperiment(std::uint32_t target, common::Rng& rng,
                        double* modeledSeconds = nullptr);

  /// spec.targetPool when set, otherwise targets(spec.unit).
  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override;

  /// Experiment `index` from the stream streamSeed(seed, index * 97 +
  /// attempt), redrawing up to 20 times on sites that cannot host the
  /// defect. The stride predates campaign::experimentStream and is kept so
  /// permanent campaigns keep their published results.
  campaign::ExperimentOutcome runExperimentAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  void recover() override { tool_.recover(); }

  static constexpr std::uint32_t kFlopFlag = 0x80000000u;

 private:
  FadesTool& tool_;
  PermanentFaultModel model_;
};

}  // namespace fades::core
