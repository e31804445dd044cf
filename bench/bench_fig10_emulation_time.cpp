// Figure 10: mean emulation time of the FADES experiments, per fault model
// and target. The modeled time of every experiment derives from the actual
// configuration traffic on the metered port (frames moved, sessions opened,
// read-backs triggered) through the board-link cost model, plus workload
// execution at the FPGA clock.
//
// Paper values (seconds for 3000 faults): bit-flip FFs 916, bit-flip memory
// 536, pulse <1 cycle 755, pulse otherwise 1520, delay sequential 2487,
// delay combinational 2778, indetermination sequential 1065, combinational
// 805; oscillating indetermination (11-20 cycles) ~4605.
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

campaign::CampaignResult run(core::FadesTool& tool, FaultModel m,
                             TargetClass c, DurationBand band, unsigned n,
                             std::uint64_t seed = 7) {
  CampaignSpec spec;
  spec.model = m;
  spec.targets = c;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = band;
  spec.experiments = n;
  spec.seed = seed;
  return bench::runCampaign(tool, spec);
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun benchRun("fig10_emulation_time", argc, argv);
  System8051 sys;
  sys.printHeadline();
  auto& fades = sys.fades();
  const unsigned n = timingCount();
  const unsigned nDelay = std::min(n, 40u);

  std::vector<std::vector<std::string>> rows;
  auto addRow = [&](const std::string& label,
                    const campaign::CampaignResult& r, const char* paper) {
    recordCampaign(label, r);
    rows.push_back({label, common::fixed(r.modeledSeconds.mean(), 3),
                    common::fixed(r.modeledSeconds.mean() * 3000.0, 0),
                    paper});
  };

  addRow("bit-flip, FFs",
         run(fades, FaultModel::BitFlip, TargetClass::SequentialFF,
             DurationBand::shortBand(), n),
         "916");
  addRow("bit-flip, memory blocks",
         run(fades, FaultModel::BitFlip, TargetClass::MemoryBlockBit,
             DurationBand::shortBand(), n),
         "536");
  addRow("pulse, combinational, <1 cycle",
         run(fades, FaultModel::Pulse, TargetClass::CombinationalLut,
             DurationBand::subCycle(), n),
         "755");
  addRow("pulse, combinational, 1-10 cycles",
         run(fades, FaultModel::Pulse, TargetClass::CombinationalLut,
             DurationBand::shortBand(), n),
         "1520");
  addRow("indetermination, sequential",
         run(fades, FaultModel::Indetermination, TargetClass::SequentialFF,
             DurationBand::shortBand(), n),
         "1065");
  addRow("indetermination, combinational",
         run(fades, FaultModel::Indetermination,
             TargetClass::CombinationalLut, DurationBand::shortBand(), n),
         "805");

  {
    auto& delayTool = sys.fadesForDelay();
    addRow("delay, sequential lines",
           run(delayTool, FaultModel::Delay, TargetClass::SequentialLine,
               DurationBand::shortBand(), nDelay),
           "2487");
    addRow("delay, combinational lines",
           run(delayTool, FaultModel::Delay, TargetClass::CombinationalLine,
               DurationBand::shortBand(), nDelay),
           "2778");
  }

  {
    core::FadesOptions osc = sys.fadesOptions();
    osc.oscillatingIndetermination = true;
    fpga::Device dev(sys.implementation().spec);
    core::FadesTool oscTool(dev, sys.implementation(),
                            sys.runCycles(), osc);
    addRow("indetermination, sequential, oscillating, 11-20 cycles",
           run(oscTool, FaultModel::Indetermination,
               TargetClass::SequentialFF, DurationBand::longBand(), n),
           "~4605");
  }

  printTable("Figure 10 - mean emulation time via FADES (" +
                 std::to_string(n) + " faults per campaign)",
             {"fault model / target", "mean s/fault",
              "scaled to 3000 faults (s)", "paper (s, 3000 faults)"},
             rows);
  recordScalar("setup_seconds", fades.setupSeconds());
  std::printf("One-time bitstream download (not per-experiment): %.2f s\n",
              fades.setupSeconds());
  return 0;
}
