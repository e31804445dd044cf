// Ablation (paper Section 6.2): the delay injector's full-configuration
// download (the JBits/driver workaround that made delay the most expensive
// model) versus proper partial frame reconfiguration. Fault effects are
// identical; only the transfer volume changes.
#include <cstdio>

#include "bench_common.hpp"

using namespace fades;
using namespace fades::bench;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Unit;

namespace {

campaign::CampaignResult run(core::FadesTool& tool, unsigned n) {
  CampaignSpec spec;
  spec.model = FaultModel::Delay;
  spec.targets = TargetClass::CombinationalLine;
  spec.band = DurationBand::shortBand();
  spec.experiments = n;
  spec.seed = 21;
  return bench::runCampaign(tool, spec);
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun benchRun("ablation_partial_full", argc, argv);
  System8051 sys;
  sys.printHeadline();
  const unsigned n = std::min(timingCount(40), 40u);

  // Calibrated clock so delays are meaningful, as in fig12/15.
  const fpga::DeviceSpec spec = core::delayCalibratedSpec(sys.implementation());

  core::FadesOptions fullOpt = sys.fadesOptions();
  fullOpt.fullDownloadForDelay = true;
  core::FadesOptions partialOpt = sys.fadesOptions();
  partialOpt.fullDownloadForDelay = false;

  fpga::Device devF(spec), devP(spec);
  core::FadesTool full(devF, sys.implementation(), sys.runCycles(),
                       fullOpt);
  core::FadesTool partial(devP, sys.implementation(), sys.runCycles(),
                          partialOpt);

  const auto rFull = run(full, n);
  const auto rPartial = run(partial, n);

  printTable(
      "Ablation - delay faults, full-bitstream download vs partial frames (" +
          std::to_string(n) + " faults each)",
      {"reconfiguration", "mean s/fault", "scaled 3000 faults (s)",
       "failure %"},
      {{"full download (paper's driver workaround)",
        common::fixed(rFull.modeledSeconds.mean(), 3),
        common::fixed(rFull.modeledSeconds.mean() * 3000, 0),
        common::fixed(rFull.failurePct(), 1)},
       {"partial frames (what RTR makes possible)",
        common::fixed(rPartial.modeledSeconds.mean(), 3),
        common::fixed(rPartial.modeledSeconds.mean() * 3000, 0),
        common::fixed(rPartial.failurePct(), 1)}});
  std::printf("The paper attributes delay's 2487-2778 s entirely to this "
              "workaround; partial reconfiguration removes the gap "
              "(%.1fx cheaper) without changing outcomes.\n",
              rFull.modeledSeconds.mean() / rPartial.modeledSeconds.mean());
  return 0;
}
