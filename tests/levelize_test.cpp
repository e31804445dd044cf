// Levelizer unit tests: schedule legality on random designs, cycle
// diagnostics, and a golden dump pinning the MC8051 kernel shape.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "random_design.hpp"
#include "rtl/builder.hpp"

namespace fades::netlist {
namespace {

using common::FadesError;
using common::Rng;
using rtl::Builder;
using rtl::Bus;

using test_support::randomDesign;

// ------------------------------------------------------- schedule shape -----

TEST(Levelize, ScheduleRespectsCombinationalDepth) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Builder b = randomDesign(seed, 60);
    const Netlist nl = b.finish();
    const Levelization lv = levelize(nl);

    ASSERT_EQ(lv.schedule.size(), nl.gateCount());
    ASSERT_EQ(lv.level.size(), nl.gateCount());

    // Level exactness: a gate's level is 1 + max over gate-driven inputs
    // (0 when it reads only sources), and the schedule is ascending
    // (level, gate index).
    std::vector<int> driverGate(nl.netCount(), -1);
    for (std::size_t g = 0; g < nl.gateCount(); ++g) {
      driverGate[nl.gates()[g].out.value] = static_cast<int>(g);
    }
    for (std::size_t g = 0; g < nl.gateCount(); ++g) {
      std::uint32_t want = 0;
      for (const NetId in : nl.gates()[g].in) {
        if (!in.valid()) continue;
        const int d = driverGate[in.value];
        if (d >= 0) want = std::max(want, lv.level[d] + 1);
      }
      EXPECT_EQ(lv.level[g], want) << "gate " << g << " seed " << seed;
    }
    for (std::size_t i = 1; i < lv.schedule.size(); ++i) {
      const auto a = lv.schedule[i - 1], bb = lv.schedule[i];
      const bool ordered =
          lv.level[a.value] < lv.level[bb.value] ||
          (lv.level[a.value] == lv.level[bb.value] && a.value < bb.value);
      EXPECT_TRUE(ordered) << "schedule not canonical at slot " << i;
    }
    // CSR offsets partition the schedule.
    ASSERT_GE(lv.levelOffsets.size(), 2u);
    EXPECT_EQ(lv.levelOffsets.front(), 0u);
    EXPECT_EQ(lv.levelOffsets.back(), nl.gateCount());
    for (unsigned l = 0; l < lv.depth(); ++l) {
      for (std::uint32_t s = lv.levelOffsets[l]; s < lv.levelOffsets[l + 1];
           ++s) {
        EXPECT_EQ(lv.level[lv.schedule[s].value], l);
      }
    }
  }
}

TEST(Levelize, EveryGateScheduledExactlyOnce) {
  Builder b = randomDesign(99, 80);
  const Netlist nl = b.finish();
  const Levelization lv = levelize(nl);
  std::vector<char> seen(nl.gateCount(), 0);
  for (const GateId g : lv.schedule) {
    EXPECT_FALSE(seen[g.value]) << "gate " << g.value << " scheduled twice";
    seen[g.value] = 1;
  }
}

// ------------------------------------------------------ cycle detection -----

TEST(Levelize, CombinationalCycleRaisesConfigErrorNamingNets) {
  // a = AND(b, x); b = OR(a, y) - a two-gate combinational loop.
  Netlist nl;
  const NetId x = nl.addNet("x");
  const NetId y = nl.addNet("y");
  const NetId a = nl.addNet("loop_a");
  const NetId b = nl.addNet("loop_b");
  nl.addInputPort("x", {x});
  nl.addInputPort("y", {y});
  nl.addGate(GateOp::And, b, x, {}, Unit::None, a);
  nl.addGate(GateOp::Or, a, y, {}, Unit::None, b);
  nl.addOutputPort("o", {a});

  try {
    levelize(nl);
    FAIL() << "levelize accepted a combinational cycle";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("loop_a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("loop_b"), std::string::npos) << msg;
  }
}

TEST(Levelize, SelfLoopRaisesConfigError) {
  Netlist nl;
  const NetId x = nl.addNet("x");
  const NetId s = nl.addNet("self");
  nl.addInputPort("x", {x});
  nl.addGate(GateOp::Or, s, x, {}, Unit::None, s);
  nl.addOutputPort("o", {s});
  try {
    levelize(nl);
    FAIL() << "levelize accepted a self-loop";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    EXPECT_NE(std::string(e.what()).find("self"), std::string::npos);
  }
}

TEST(Levelize, FlopFeedbackIsNotACycle) {
  // Sequential feedback through a register is legal; only combinational
  // loops are rejected.
  Builder b;
  rtl::Register r = b.makeRegister("st", 4, 1);
  b.connect(r, b.increment(r.q));
  b.output("st", r.q);
  const Netlist nl = b.finish();
  EXPECT_NO_THROW(levelize(nl));
}

// ----------------------------------------------------------- golden dump -----

TEST(Levelize, Mc8051DumpMatchesGoldenFile) {
  // Pins the exact kernel shape (gate/flop/ram counts, per-level histogram,
  // schedule hash) of the MC8051 core. Any change to the builder, the IR or
  // the levelizer that alters the compiled kernel shows up as a reviewable
  // diff. To regenerate after an intentional change:
  //   FADES_REGEN_GOLDEN=1 ./tests/test_levelize
  //     --gtest_filter='Levelize.Mc8051Dump*'
  const auto workload = mc8051::bubblesort(6);
  const Netlist nl = mc8051::buildCore(workload.bytes);
  const std::string dump = levelize(nl).dump(nl);

  const std::string goldenPath =
      std::string(FADES_TEST_DATA_DIR) + "/mc8051_levels.txt";
  if (std::getenv("FADES_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(goldenPath, std::ios::binary);
    out << dump;
    GTEST_SKIP() << "regenerated " << goldenPath;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath
                         << " (run with FADES_REGEN_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(dump, golden.str());
}

}  // namespace
}  // namespace fades::netlist
