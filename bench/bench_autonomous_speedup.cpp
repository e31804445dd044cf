// Autonomous emulation vs run-time reconfiguration (RTR), the trade the
// paper's related work weighs: compile masks and golden-state shadows into
// the design (area overhead, zero configuration traffic per injection)
// against FADES' instrument-free RTR injection (no area overhead, frame
// traffic per injection). Reported per fault model on the shared MC8051 +
// Bubblesort system: modeled per-injection time for both injectors and the
// resulting speed-up, plus the exact area overhead the instrumentation
// pass returns.
#include <cstdio>

#include "bench_common.hpp"
#include "core/autonomous.hpp"

using namespace fades;
using namespace fades::bench;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::FaultModel;
using campaign::TargetClass;

namespace {

CampaignSpec makeSpec(FaultModel m, TargetClass c, unsigned n) {
  CampaignSpec spec;
  spec.model = m;
  spec.targets = c;
  spec.band = DurationBand::shortBand();
  spec.experiments = n;
  spec.seed = 11;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun benchRun("autonomous_speedup", argc, argv);
  System8051 sys;
  sys.printHeadline();
  auto& rtr = sys.fades();
  core::AutonomousTool aut(sys.netlist(), sys.runCycles());
  const unsigned n = timingCount(60);

  // Area overhead: what the autonomous injector costs before the first
  // fault - RTR's instrument-free baseline is zero by construction.
  const auto& model = aut.model();
  const auto& stats = sys.implementation().stats;
  printTable(
      "Autonomous instrumentation area overhead (RTR overhead: none)",
      {"quantity", "base design", "added", "relative"},
      {{"gates (LUT-mapped)", std::to_string(stats.luts),
        std::to_string(model.addedGates),
        common::fixed(100.0 * model.addedGates / stats.luts, 1) + " %"},
       {"flip-flops", std::to_string(stats.flops),
        std::to_string(model.addedFlops),
        common::fixed(100.0 * model.addedFlops / stats.flops, 1) + " %"},
       {"memory bits (shadow copies)", "-",
        std::to_string(model.shadowRamBits), "-"},
       {"mask-chain bits", "-", std::to_string(model.chainBits), "-"},
       {"restore sweep (cycles)", "-", std::to_string(aut.restoreCycles()),
        "-"}});

  struct Row {
    std::string label;
    FaultModel model;
    TargetClass targets;
  };
  const Row kRows[] = {
      {"bit-flip / FFs", FaultModel::BitFlip, TargetClass::SequentialFF},
      {"bit-flip / memory blocks", FaultModel::BitFlip,
       TargetClass::MemoryBlockBit},
      {"pulse / combinational", FaultModel::Pulse,
       TargetClass::CombinationalLut},
      {"indetermination / sequential", FaultModel::Indetermination,
       TargetClass::SequentialFF},
      {"indetermination / combinational", FaultModel::Indetermination,
       TargetClass::CombinationalLut},
  };

  std::vector<std::vector<std::string>> rows;
  double rtrSum = 0, autSum = 0;
  for (const auto& r : kRows) {
    const auto spec = makeSpec(r.model, r.targets, n);
    const auto rtrRes = bench::runCampaign(rtr, spec);
    const auto autRes = campaign::runCampaign(aut, spec);
    recordCampaign("rtr, " + r.label, rtrRes);
    recordCampaign("autonomous, " + r.label, autRes);
    const double rtrSec = rtrRes.modeledSeconds.mean();
    const double autSec = autRes.modeledSeconds.mean();
    rtrSum += rtrSec;
    autSum += autSec;
    rows.push_back({r.label, common::fixed(rtrSec * 1e3, 3),
                    common::fixed(autSec * 1e3, 3),
                    common::fixed(rtrSec / autSec, 2)});
  }
  const double speedup = rtrSum / autSum;
  rows.push_back({"mean (all models above)",
                  common::fixed(rtrSum / 5 * 1e3, 3),
                  common::fixed(autSum / 5 * 1e3, 3),
                  common::fixed(speedup, 2)});
  printTable(
      "Per-injection modeled time - RTR (FADES) vs autonomous emulation",
      {"fault model / target", "RTR (ms)", "autonomous (ms)", "speed-up"},
      rows);
  recordScalar("modeled_speedup", speedup);
  std::printf(
      "Autonomous injection moves 0 configuration bytes; its overhead is "
      "%u chain bits + %llu restore cycles at the emulator clock.\n",
      model.chainBits,
      static_cast<unsigned long long>(aut.restoreCycles()));
  return 0;
}
