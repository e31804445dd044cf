// Ablation (paper Table 1 / Section 4.3-4.4 design choices):
//  * fan-out increase vs reroute for delay faults - the fan-out mechanism
//    adds tiny capacitive delays ("good for small delays"), rerouting adds
//    whole extra segments ("good for large delays");
//  * fixed vs oscillating indetermination values - re-randomizing every
//    cycle multiplies reconfiguration traffic (Section 6.2: ~1065 s vs
//    ~4605 s for long faults).
#include <cstdio>

#include "bench_common.hpp"

using namespace fades;
using namespace fades::bench;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Unit;

int main(int argc, char** argv) {
  BenchRun benchRun("ablation_mechanisms", argc, argv);
  System8051 sys;
  sys.printHeadline();
  const unsigned n = std::min(timingCount(50), 50u);

  // --- delay mechanism comparison ----------------------------------------
  const fpga::DeviceSpec spec = core::delayCalibratedSpec(sys.implementation());

  auto delayCampaign = [&](core::DelayVia via) {
    core::FadesOptions opt = sys.fadesOptions();
    opt.delayVia = via;
    opt.fullDownloadForDelay = false;
    fpga::Device dev(spec);
    core::FadesTool tool(dev, sys.implementation(), sys.runCycles(), opt);
    CampaignSpec cs;
    cs.model = FaultModel::Delay;
    cs.targets = TargetClass::CombinationalLine;
    cs.band = DurationBand::longBand();
    cs.experiments = n;
    cs.seed = 31;
    return bench::runCampaign(tool, cs);
  };
  const auto fan = delayCampaign(core::DelayVia::Fanout);
  const auto reroute = delayCampaign(core::DelayVia::Reroute);
  const auto shift = delayCampaign(core::DelayVia::ShiftRegister);

  printTable("Ablation - delay mechanism (duration 11-20 cycles, " +
                 std::to_string(n) + " faults each)",
             {"mechanism", "failure %", "latent %", "silent %"},
             {{"fan-out increase (~0.01-0.05 ns, Fig. 8)",
               common::fixed(fan.failurePct(), 1),
               common::fixed(fan.latentPct(), 1),
               common::fixed(fan.silentPct(), 1)},
              {"reroute through longer path (~1-10 ns)",
               common::fixed(reroute.failurePct(), 1),
               common::fixed(reroute.latentPct(), 1),
               common::fixed(reroute.silentPct(), 1)},
              {"shift register through unused FFs (cycle-scale, Fig. 7)",
               common::fixed(shift.failurePct(), 1),
               common::fixed(shift.latentPct(), 1),
               common::fixed(shift.silentPct(), 1)}});
  std::printf("Delay magnitude governs severity: capacitive fan-out loads "
              "never violate setup on this design, wire detours rarely do, "
              "whole-cycle shifts do measurably.\n\n");

  // --- indetermination value policy ----------------------------------------
  auto indetCampaign = [&](bool oscillating) {
    core::FadesOptions opt = sys.fadesOptions();
    opt.oscillatingIndetermination = oscillating;
    fpga::Device dev(sys.implementation().spec);
    core::FadesTool tool(dev, sys.implementation(), sys.runCycles(), opt);
    CampaignSpec cs;
    cs.model = FaultModel::Indetermination;
    cs.targets = TargetClass::SequentialFF;
    cs.band = DurationBand::longBand();
    cs.experiments = n;
    cs.seed = 33;
    return bench::runCampaign(tool, cs);
  };
  const auto fixed = indetCampaign(false);
  const auto osc = indetCampaign(true);

  printTable(
      "Ablation - indetermination value policy (duration 11-20 cycles)",
      {"policy", "mean s/fault", "scaled 3000 faults (s)", "failure %"},
      {{"fixed final value", common::fixed(fixed.modeledSeconds.mean(), 3),
        common::fixed(fixed.modeledSeconds.mean() * 3000, 0),
        common::fixed(fixed.failurePct(), 1)},
       {"re-randomized every cycle",
        common::fixed(osc.modeledSeconds.mean(), 3),
        common::fixed(osc.modeledSeconds.mean() * 3000, 0),
        common::fixed(osc.failurePct(), 1)}});
  std::printf("Paper Section 6.2: oscillation raised 1065 s to ~4605 s for "
              "long sequential indeterminations.\n");
  return 0;
}
