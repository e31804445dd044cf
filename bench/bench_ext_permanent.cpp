// Extension bench (paper Section 8, future work): permanent fault emulation
// via run-time reconfiguration - stuck-at, open-line, stuck-open and
// bridging faults on the MC8051 system. The paper announces these models as
// the framework's next step; this bench shows what the RTR machinery
// produces for them. There are no paper numbers to compare against - the
// output documents the extension's behaviour.
#include <cstdio>

#include "bench_common.hpp"
#include "core/permanent.hpp"

using namespace fades;
using namespace fades::bench;

int main(int argc, char** argv) {
  BenchRun benchRun("ext_permanent", argc, argv);
  System8051 sys;
  sys.printHeadline();
  auto& fades = sys.fades();
  const unsigned n = classifyCount(150);

  std::vector<std::vector<std::string>> rows;
  for (const auto model :
       {core::PermanentFaultModel::StuckAt0,
        core::PermanentFaultModel::StuckAt1,
        core::PermanentFaultModel::OpenLine,
        core::PermanentFaultModel::StuckOpen,
        core::PermanentFaultModel::Bridging}) {
    core::PermanentFaults permanent(fades, model);
    campaign::CampaignSpec spec;
    spec.experiments = n;
    spec.seed = 8;
    const auto pool = permanent.targets(netlist::Unit::None);
    const auto r = campaign::runCampaign(permanent, spec);
    rows.push_back({core::toString(model), std::to_string(pool.size()),
                    pct3(r), common::fixed(r.modeledSeconds.mean(), 3)});
  }
  printTable("Extension - permanent faults via RTR (" + std::to_string(n) +
                 " faults per model; future work of the paper's Section 8)",
             {"fault model", "targets", "failure / latent / silent %",
              "mean s/fault (modeled)"},
             rows);
  return 0;
}
