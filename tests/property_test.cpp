// Repo-wide property tests: invariants that must hold across module
// boundaries for any input, exercised with randomized sweeps.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>

#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "core/lut_circuit.hpp"
#include "fpga/device.hpp"
#include "mc8051/assembler.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "rtl/builder.hpp"
#include "sim/simulator.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using common::Rng;
using netlist::Netlist;
using rtl::Builder;
using rtl::Bus;

// ------------------------------------------------------ routing legality -----

rtl::Builder randomDesign(std::uint64_t seed, unsigned gates) {
  Rng rng(seed);
  Builder b;
  Bus in = b.input("in", 8);
  std::vector<rtl::NetId> pool = in;
  std::vector<rtl::Register> regs;
  for (unsigned r = 0; r < 4; ++r) {
    regs.push_back(b.makeRegister("q" + std::to_string(r), 4, 0));
    pool.insert(pool.end(), regs.back().q.begin(), regs.back().q.end());
  }
  for (unsigned g = 0; g < gates; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  Bus out;
  for (int k = 0; k < 8; ++k) out.push_back(pool[rng.below(pool.size())]);
  b.output("out", out);
  return b;
}

class RoutingLegality : public ::testing::TestWithParam<int> {};

TEST_P(RoutingLegality, NoTwoNetsShareAWireSegment) {
  Builder b = randomDesign(static_cast<std::uint64_t>(GetParam()), 50);
  const Netlist nl = b.finish();
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());

  std::set<std::uint32_t> used;
  for (const auto& route : impl.routes) {
    for (auto n : route.wireNodes) {
      EXPECT_TRUE(used.insert(n).second)
          << "wire node " << n << " used by two nets (short circuit)";
    }
  }
  // And every route's transistors are actually ON in the bitstream.
  for (const auto& route : impl.routes) {
    for (auto bit : route.transistorBits) {
      EXPECT_TRUE(impl.bitstream.logic.get(bit));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingLegality, ::testing::Range(1, 7));

TEST(RoutingLegality, DistinctFlopSitesAndLutSites) {
  Builder b = randomDesign(11, 60);
  const Netlist nl = b.finish();
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  std::set<std::pair<int, int>> cbs;
  for (const auto& l : impl.luts) {
    EXPECT_TRUE(cbs.insert({l.cb.x, l.cb.y}).second)
        << "two LUTs on one CB";
  }
  std::set<std::pair<int, int>> ffs;
  for (const auto& f : impl.flops) {
    EXPECT_TRUE(ffs.insert({f.cb.x, f.cb.y}).second)
        << "two FFs on one CB";
  }
}

// ---------------------------------------------------- LUT circuit algebra -----

TEST(LutCircuitAlgebra, DoubleInversionIsIdentity) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto table = static_cast<std::uint16_t>(rng.below(0x10000));
    for (unsigned input = 0; input < 4; ++input) {
      const auto once =
          core::ExtractedCircuit::tableWithInvertedInput(table, input);
      const auto twice =
          core::ExtractedCircuit::tableWithInvertedInput(once, input);
      EXPECT_EQ(twice, table);
    }
    EXPECT_EQ(core::ExtractedCircuit::tableWithInvertedOutput(
                  core::ExtractedCircuit::tableWithInvertedOutput(table)),
              table);
  }
}

TEST(LutCircuitAlgebra, ExtractionNodeCountBounded) {
  // A reduced 4-variable BDD has at most 2^4 - 1 internal nodes; typical
  // functions are far smaller.
  Rng rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    const auto table = static_cast<std::uint16_t>(rng.below(0x10000));
    core::ExtractedCircuit c(table);
    EXPECT_LE(c.internalLineCount(), 15u);
  }
}

// ------------------------------------------------------- assembler fuzz -----

/// Generate a random but CONTROL-FLOW-SAFE program: straight-line random
/// data instructions, ending in the idle loop. Branches are excluded so the
/// program cannot wander into garbage.
std::string randomStraightLineProgram(std::uint64_t seed, unsigned count) {
  Rng rng(seed);
  std::ostringstream s;
  s << "  MOV SP, #0x60\n";
  auto dir = [&] {
    // Direct addresses in scratch IRAM.
    return "0x" + std::to_string(30 + rng.below(40));
  };
  for (unsigned i = 0; i < count; ++i) {
    switch (rng.below(16)) {
      case 0: s << "  MOV A, #" << rng.below(256) << "\n"; break;
      case 1: s << "  MOV R" << rng.below(8) << ", #" << rng.below(256) << "\n"; break;
      case 2: s << "  ADD A, R" << rng.below(8) << "\n"; break;
      case 3: s << "  SUBB A, #" << rng.below(256) << "\n"; break;
      case 4: s << "  ANL A, #" << rng.below(256) << "\n"; break;
      case 5: s << "  ORL A, R" << rng.below(8) << "\n"; break;
      case 6: s << "  XRL A, #" << rng.below(256) << "\n"; break;
      case 7: s << "  RL A\n"; break;
      case 8: s << "  RRC A\n"; break;
      case 9: s << "  INC A\n"; break;
      case 10: s << "  DEC R" << rng.below(8) << "\n"; break;
      case 11: s << "  MOV " << dir() << ", A\n"; break;
      case 12: s << "  XCH A, R" << rng.below(8) << "\n"; break;
      case 13: s << "  PUSH PSW\n  POP B\n"; break;
      case 14: s << "  CPL A\n"; break;
      default: s << "  ADDC A, #" << rng.below(256) << "\n"; break;
    }
  }
  s << "  MOV P1, A\n  MOV P0, #0x99\nend: SJMP $\n";
  return s.str();
}

class AssemblerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AssemblerFuzz, IssAndRtlAgreeOnRandomPrograms) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto src = randomStraightLineProgram(seed, 60);
  const auto prog = mc8051::assemble(src);

  mc8051::Iss iss(prog.bytes);
  std::uint64_t guard = 0;
  while (iss.p0() != 0x99 && ++guard < 20000) iss.stepInstruction();
  ASSERT_EQ(iss.p0(), 0x99) << "program did not finish";

  const auto nl = mc8051::buildCore(prog.bytes);
  sim::Simulator simulator(nl);
  simulator.run(iss.cycleCount() + 8);
  iss.runCycles(iss.cycleCount() + 8);

  EXPECT_EQ(simulator.portValue("acc"), iss.acc()) << src;
  EXPECT_EQ(simulator.portValue("p1"), iss.p1());
  EXPECT_EQ(simulator.portValue("sp"), iss.sp());
  EXPECT_EQ(simulator.portValue("pc"), iss.pc());
  for (unsigned a = 0; a < 128; ++a) {
    netlist::RamId iram{};
    for (std::uint32_t r = 0; r < nl.ramCount(); ++r) {
      if (nl.ram(netlist::RamId{r}).name == "iram") iram = netlist::RamId{r};
    }
    ASSERT_EQ(simulator.ramWord(iram, a), iss.iram(static_cast<std::uint8_t>(a)))
        << "iram[" << a << "] seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz, ::testing::Range(1, 11));

// --------------------------------------- sharded campaign equivalence -----

/// For any small random design and any small random campaign spec, the
/// sharded runner merged over 2-5 workers equals the serial FadesTool run
/// field for field - bit-identical floating-point sums included.
TEST(ParallelEquivalence, RandomCampaignsShardedEqualsSerial) {
  using campaign::CampaignSpec;
  using campaign::DurationBand;
  using campaign::FaultModel;
  using campaign::TargetClass;

  const std::pair<FaultModel, TargetClass> kinds[] = {
      {FaultModel::BitFlip, TargetClass::SequentialFF},
      {FaultModel::Pulse, TargetClass::CombinationalLut},
      {FaultModel::Indetermination, TargetClass::SequentialFF},
      {FaultModel::Indetermination, TargetClass::CombinationalLut},
  };
  Rng rng(20260805);
  for (int trial = 0; trial < 5; ++trial) {
    Builder b = randomDesign(100 + trial, 30 + rng.below(25));
    const Netlist nl = b.finish();
    const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
    const std::uint64_t cycles = 32 + rng.below(32);

    core::FadesOptions opt;
    opt.observedOutputs = {"out"};
    opt.keepRecords = true;
    // The session frame cache is drawn independently for the serial and the
    // sharded run: results must be identical whichever side caches.
    opt.sessionFrameCache = rng.coin();

    CampaignSpec spec;
    const auto& kind = kinds[rng.below(std::size(kinds))];
    spec.model = kind.first;
    spec.targets = kind.second;
    spec.band = DurationBand::paperBands()[rng.below(3)];
    spec.experiments = 5 + static_cast<unsigned>(rng.below(8));
    spec.seed = rng.below(1u << 30);

    fpga::Device device(impl.spec);
    core::FadesTool tool(device, impl, cycles, opt);
    if (tool.enumeratePool(spec).empty()) continue;
    const auto serial = campaign::runCampaign(tool, spec);

    campaign::ParallelOptions popt;
    popt.jobs = 2 + static_cast<unsigned>(rng.below(4));
    core::FadesOptions shardedOpt = opt;
    shardedOpt.sessionFrameCache = rng.coin();
    campaign::ParallelCampaignRunner runner(
        core::fadesEngineFactory(impl, cycles, shardedOpt), popt);
    const auto sharded = runner.run(spec);

    SCOPED_TRACE("trial " + std::to_string(trial) + " jobs " +
                 std::to_string(popt.jobs) + " seed " +
                 std::to_string(spec.seed) + " cache " +
                 std::to_string(opt.sessionFrameCache) + "/" +
                 std::to_string(shardedOpt.sessionFrameCache));
    EXPECT_EQ(serial.failures, sharded.failures);
    EXPECT_EQ(serial.latents, sharded.latents);
    EXPECT_EQ(serial.silents, sharded.silents);
    EXPECT_EQ(serial.modeledSeconds.count(), sharded.modeledSeconds.count());
    EXPECT_EQ(serial.modeledSeconds.sum(), sharded.modeledSeconds.sum());
    EXPECT_EQ(serial.modeledSeconds.stddev(), sharded.modeledSeconds.stddev());
    EXPECT_EQ(serial.cost.configSeconds, sharded.cost.configSeconds);
    EXPECT_EQ(serial.cost.workloadSeconds, sharded.cost.workloadSeconds);
    EXPECT_EQ(serial.cost.hostSeconds, sharded.cost.hostSeconds);
    EXPECT_EQ(serial.cost.bytesToDevice, sharded.cost.bytesToDevice);
    EXPECT_EQ(serial.cost.bytesFromDevice, sharded.cost.bytesFromDevice);
    EXPECT_EQ(serial.cost.sessions, sharded.cost.sessions);
    ASSERT_EQ(serial.records.size(), sharded.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(serial.records[i].targetName, sharded.records[i].targetName);
      EXPECT_EQ(serial.records[i].injectCycle, sharded.records[i].injectCycle);
      EXPECT_EQ(serial.records[i].durationCycles,
                sharded.records[i].durationCycles);
      EXPECT_EQ(serial.records[i].outcome, sharded.records[i].outcome);
      EXPECT_EQ(serial.records[i].modeledSeconds,
                sharded.records[i].modeledSeconds);
    }
  }
}

// ----------------------------------------- unreliable-link equivalence -----

/// For any random design and any random (modest) link fault rates, retried
/// transfers must be invisible in the campaign result: outcomes, records and
/// the modeled cost are bit-identical to a fault-free run of the same spec,
/// serial and sharded alike. Only the telemetry (fault/retry counters) may
/// differ.
TEST(LinkFaultEquivalence, RandomFaultRatesAreInvisibleInResults) {
  using campaign::CampaignSpec;
  using campaign::DurationBand;
  using campaign::FaultModel;
  using campaign::TargetClass;

  Rng rng(8051);
  for (int trial = 0; trial < 3; ++trial) {
    Builder b = randomDesign(300 + trial, 30 + rng.below(20));
    const Netlist nl = b.finish();
    const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
    const std::uint64_t cycles = 32 + rng.below(32);

    core::FadesOptions clean;
    clean.observedOutputs = {"out"};
    clean.keepRecords = true;

    CampaignSpec spec;
    spec.model = rng.coin() ? FaultModel::BitFlip : FaultModel::Pulse;
    spec.targets = spec.model == FaultModel::BitFlip
                       ? TargetClass::SequentialFF
                       : TargetClass::CombinationalLut;
    spec.band = DurationBand::paperBands()[rng.below(3)];
    spec.experiments = 6 + static_cast<unsigned>(rng.below(6));
    spec.seed = rng.below(1u << 30);

    fpga::Device device(impl.spec);
    core::FadesTool tool(device, impl, cycles, clean);
    if (tool.enumeratePool(spec).empty()) continue;
    const auto baseline = campaign::runCampaign(tool, spec);

    // Modest rates with the default generous retry budget: every fault is
    // retried away, nothing quarantines.
    core::FadesOptions faulty = clean;
    faulty.linkFaults.readCrcRate = 0.01 + 0.04 * rng.uniform01();
    faulty.linkFaults.writeFailRate = 0.01 + 0.04 * rng.uniform01();
    faulty.linkFaults.timeoutRate = 0.005 * rng.uniform01();

    SCOPED_TRACE("trial " + std::to_string(trial) + " seed " +
                 std::to_string(spec.seed) + " rates " +
                 std::to_string(faulty.linkFaults.readCrcRate) + "/" +
                 std::to_string(faulty.linkFaults.writeFailRate) + "/" +
                 std::to_string(faulty.linkFaults.timeoutRate));

    fpga::Device faultyDevice(impl.spec);
    core::FadesTool faultyTool(faultyDevice, impl, cycles, faulty);
    const auto serial = campaign::runCampaign(faultyTool, spec);

    campaign::ParallelOptions popt;
    popt.jobs = 2 + static_cast<unsigned>(rng.below(3));
    campaign::ParallelCampaignRunner runner(
        core::fadesEngineFactory(impl, cycles, faulty), popt);
    const auto sharded = runner.run(spec);

    for (const auto* r : {&serial, &sharded}) {
      EXPECT_TRUE(r->quarantined.empty());
      EXPECT_EQ(baseline.failures, r->failures);
      EXPECT_EQ(baseline.latents, r->latents);
      EXPECT_EQ(baseline.silents, r->silents);
      EXPECT_EQ(baseline.modeledSeconds.count(), r->modeledSeconds.count());
      EXPECT_EQ(baseline.modeledSeconds.sum(), r->modeledSeconds.sum());
      EXPECT_EQ(baseline.cost.configSeconds, r->cost.configSeconds);
      EXPECT_EQ(baseline.cost.workloadSeconds, r->cost.workloadSeconds);
      EXPECT_EQ(baseline.cost.hostSeconds, r->cost.hostSeconds);
      EXPECT_EQ(baseline.cost.bytesToDevice, r->cost.bytesToDevice);
      EXPECT_EQ(baseline.cost.bytesFromDevice, r->cost.bytesFromDevice);
      EXPECT_EQ(baseline.cost.sessions, r->cost.sessions);
      ASSERT_EQ(baseline.records.size(), r->records.size());
      for (std::size_t i = 0; i < baseline.records.size(); ++i) {
        EXPECT_EQ(baseline.records[i].targetName, r->records[i].targetName);
        EXPECT_EQ(baseline.records[i].injectCycle, r->records[i].injectCycle);
        EXPECT_EQ(baseline.records[i].outcome, r->records[i].outcome);
        EXPECT_EQ(baseline.records[i].modeledSeconds,
                  r->records[i].modeledSeconds);
      }
    }
  }
}

// ------------------------------------------------------ RNG statistical -----

TEST(RngProperty, ForkedStreamsPassChiSquareSmoke) {
  // 256-bucket chi-square on a forked stream; catches gross bias.
  Rng parent(12345);
  Rng rng = parent.fork(3);
  std::vector<unsigned> buckets(256, 0);
  const unsigned draws = 256 * 64;
  for (unsigned i = 0; i < draws; ++i) ++buckets[rng.below(256)];
  double chi2 = 0;
  const double expected = draws / 256.0;
  for (auto c : buckets) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 255 degrees of freedom: mean 255, stddev ~22.6; allow 5 sigma.
  EXPECT_GT(chi2, 255 - 5 * 22.6);
  EXPECT_LT(chi2, 255 + 5 * 22.6);
}

}  // namespace
}  // namespace fades
