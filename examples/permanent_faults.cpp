// Permanent-fault emulation - the framework extension announced as future
// work in the paper's Section 8 (short, open-line, bridging and stuck-open
// faults), here applied to the MC8051 system.
//
// Permanent faults exist from power-on and never go away during the run, so
// a single experiment answers "does the system work at all with this
// defect?" rather than "does it ride through a glitch?".
#include <cstdio>

#include "core/permanent.hpp"
#include "fpga/device.hpp"
#include "service/jobspec.hpp"

using namespace fades;

int main() {
  service::JobSpec job;  // tool fades, workload bubblesort6
  job.keepRecords = false;
  const auto system = service::buildSystem(job);
  const synth::Implementation& impl = *system->impl;
  fpga::Device device(impl.spec);
  core::FadesTool fades(device, impl, system->runCycles);

  std::printf("Permanent faults on the MC8051 (%llu-cycle Bubblesort):\n\n",
              static_cast<unsigned long long>(system->runCycles));
  std::printf("%-12s %8s %9s %8s %8s\n", "model", "targets", "failure%",
              "latent%", "silent%");

  for (const auto model :
       {core::PermanentFaultModel::StuckAt0,
        core::PermanentFaultModel::StuckAt1,
        core::PermanentFaultModel::OpenLine,
        core::PermanentFaultModel::StuckOpen,
        core::PermanentFaultModel::Bridging}) {
    core::PermanentFaults permanent(fades, model);
    campaign::CampaignSpec spec;
    spec.experiments = 60;
    spec.seed = 17;
    const auto pool = permanent.targets(netlist::Unit::None);
    const auto result = campaign::runCampaign(permanent, spec);
    std::printf("%-12s %8zu %8.1f%% %7.1f%% %7.1f%%\n",
                core::toString(model), pool.size(), result.failurePct(),
                result.latentPct(), result.silentPct());
  }
  std::printf(
      "\nStuck lines on busy logic break the workload almost always;\n"
      "opens and bridges on lightly-used nets can stay silent - the same\n"
      "location-dependence the transient campaigns show.\n");
  return 0;
}
