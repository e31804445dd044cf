// Ablation (paper Section 4.1): LSR-based vs GSR-based bit-flip injection.
// Both must produce identical fault effects; the GSR path reads back and
// rewrites the set/reset configuration of EVERY used flip-flop, while the
// LSR path touches one CB - the reason the paper proposes LSR as the fast
// mechanism.
#include <cstdio>

#include "bench_common.hpp"

using namespace fades;
using namespace fades::bench;
using campaign::FaultModel;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::Unit;

int main(int argc, char** argv) {
  BenchRun benchRun("ablation_lsr_gsr", argc, argv);
  System8051 sys;
  sys.printHeadline();
  const unsigned n = timingCount(50);

  core::FadesOptions lsrOpt = sys.fadesOptions();
  core::FadesOptions gsrOpt = sys.fadesOptions();
  gsrOpt.bitFlipVia = core::BitFlipVia::Gsr;

  fpga::Device devL(sys.implementation().spec);
  fpga::Device devG(sys.implementation().spec);
  core::FadesTool lsr(devL, sys.implementation(), sys.runCycles(),
                      lsrOpt);
  core::FadesTool gsr(devG, sys.implementation(), sys.runCycles(),
                      gsrOpt);

  common::Rng rng(6);
  const auto pool = lsr.targets(FaultModel::BitFlip,
                                TargetClass::SequentialFF, Unit::None);
  unsigned agree = 0;
  double lsrSec = 0, gsrSec = 0;
  std::uint64_t lsrBytes = 0, gsrBytes = 0;
  for (unsigned e = 0; e < n; ++e) {
    common::Rng e1 = rng.fork(e), e2 = rng.fork(e);
    const auto target = pool[e1.below(pool.size())];
    (void)e2.below(pool.size());
    const auto cycle = e1.below(lsr.runCycles());
    (void)e2.below(gsr.runCycles());
    double s1 = 0, s2 = 0;
    bits::TransferMeter m1, m2;
    const auto o1 = lsr.runExperiment(FaultModel::BitFlip,
                                      TargetClass::SequentialFF, target,
                                      cycle, 1.0, e1, &s1, &m1);
    const auto o2 = gsr.runExperiment(FaultModel::BitFlip,
                                      TargetClass::SequentialFF, target,
                                      cycle, 1.0, e2, &s2, &m2);
    agree += (o1 == o2);
    lsrSec += s1;
    gsrSec += s2;
    lsrBytes += m1.bytesToDevice + m1.bytesFromDevice;
    gsrBytes += m2.bytesToDevice + m2.bytesFromDevice;
  }

  printTable(
      "Ablation - LSR vs GSR bit-flip mechanism (" + std::to_string(n) +
          " identical faults)",
      {"mechanism", "mean s/fault", "mean bytes moved/fault",
       "outcome agreement"},
      {{"LSR (paper's fast path)", common::fixed(lsrSec / n, 3),
        common::fixed(double(lsrBytes) / n, 0),
        common::fixed(100.0 * agree / n, 1) + " %"},
       {"GSR (all-FF readback)", common::fixed(gsrSec / n, 3),
        common::fixed(double(gsrBytes) / n, 0), ""}});
  std::printf("Paper Section 4.1: the GSR drawback is \"the high amount of "
              "information to be transferred\"; measured ratio %.1fx.\n",
              double(gsrBytes) / double(lsrBytes));
  return 0;
}
