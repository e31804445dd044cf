// Ablation (paper Section 7.3): compile-time reconfiguration (CTR, saboteur
// instrumentation) vs run-time reconfiguration (RTR, this framework).
//
// CTR instruments the model with saboteurs and implements the instrumented
// version; injection is then just driving control pins (no reconfiguration),
// but the instrumentation bloats the implementation and every change of the
// target set requires re-running synthesis/place/route. RTR implements the
// ORIGINAL model exactly once and pays per-fault reconfiguration instead.
// The paper: RTR "outperforms this other technique by requiring only one
// implementation. Hence, it is a very suitable technique for fault emulation
// in large systems."
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "synth/instrument.hpp"

using namespace fades;
using namespace fades::bench;

int main(int argc, char** argv) {
  BenchRun benchRun("ablation_ctr_rtr", argc, argv);
  System8051 sys;
  sys.printHeadline();
  using Clock = std::chrono::steady_clock;

  const auto& nl = sys.netlist();

  // RTR: one implementation of the original core serves every fault. It is
  // the same implementation System8051 holds, implemented again here so the
  // table reports its host time.
  const auto r0 = Clock::now();
  const auto rtrImpl =
      synth::implement(nl, fpga::DeviceSpec::virtex1000Like());
  const double rtrImplementSeconds =
      std::chrono::duration<double>(Clock::now() - r0).count();

  // CTR: instrument a batch of combinational signals with saboteurs and
  // re-implement. One batch = one target-set; a full campaign over all
  // signal groups needs ceil(S / batch) implementations.
  std::vector<netlist::NetId> signals;
  for (const auto& g : nl.gates()) {
    if (!nl.netName(g.out).empty() &&
        g.op != netlist::GateOp::Const0 && g.op != netlist::GateOp::Const1) {
      signals.push_back(g.out);
    }
  }
  const std::size_t batch = 32;  // saboteur select width: 5 bits
  std::vector<netlist::NetId> firstBatch(
      signals.begin(),
      signals.begin() + std::min(batch, signals.size()));

  const auto t0 = Clock::now();
  const auto inst = synth::instrumentWithSaboteurs(nl, firstBatch);
  // A router that gives up on the instrumented core is a CTR result for the
  // table; any other error still aborts the bench.
  synth::Implementation ctrImpl;
  std::string unroutable;
  try {
    ctrImpl =
        synth::implement(inst.netlist, fpga::DeviceSpec::virtex1000Like());
  } catch (const common::FadesError& err) {
    if (err.kind() != common::ErrorKind::RoutingError) throw;
    unroutable = std::string("unroutable on virtex1000-like (") + err.what() +
                 "), router gave up after ";
  }
  const double ctrImplementSeconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const std::size_t implementationsNeeded =
      (signals.size() + batch - 1) / batch;
  if (!unroutable.empty()) {
    ctrImpl.stats.luts =
        static_cast<unsigned>(synth::techmap(inst.netlist).luts.size());
  }

  printTable(
      "Ablation - CTR (saboteurs) vs RTR (this framework), Section 7.3",
      {"aspect", "CTR", "RTR"},
      {{"implementations for " + std::to_string(signals.size()) +
            " instrumentable signals",
        std::to_string(implementationsNeeded) + " (batch of " +
            std::to_string(batch) + ")",
        "1"},
       {"LUTs", std::to_string(ctrImpl.stats.luts) + " (instrumented)",
        std::to_string(rtrImpl.stats.luts) + " (original)"},
       {"instrumentation gates / batch",
        std::to_string(inst.saboteurGates), "0"},
       {"host implement time / run (this machine, s)",
        unroutable.empty() ? common::fixed(ctrImplementSeconds, 2) + " x " +
                                 std::to_string(implementationsNeeded)
                           : unroutable + common::fixed(ctrImplementSeconds, 2),
        common::fixed(rtrImplementSeconds, 2) + " x 1"},
       {"per-fault injection", "drive sab_enable/sab_select (fast)",
        "partial reconfiguration (~0.2-0.9 s modeled)"}});

  std::printf(
      "CTR amortizes badly as the model grows: every target-set change costs "
      "another full implementation,\nwhile RTR reuses one bitstream for every "
      "fault model and location - the paper's Section 7.3 argument.\n");
  return 0;
}
