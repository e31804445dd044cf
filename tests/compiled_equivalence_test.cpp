// CompiledEquivalence: the compiled bit-parallel engine is proven
// bit-identical to the event-driven simulator.
//
//   * net-for-net, cycle-for-cycle state equality on random builder designs
//     under random scalar fault commands (force / release / deposit), driven
//     through the abstract Engine interface;
//   * campaign experiments field-for-field across the fault-model x
//     target-class matrix (runWaveAt vs runExperimentAt);
//   * whole-campaign artifact string equality across engines, wave
//     boundaries, --jobs counts and checkpoint spacing;
//   * the MC8051 + Bubblesort workload, FF and RAM campaigns.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "netlist/netlist.hpp"
#include "rtl/builder.hpp"
#include "sim/compiled.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "vfit/vfit.hpp"

namespace fades {
namespace {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::TargetClass;
using common::Rng;
using netlist::Netlist;
using rtl::Builder;
using rtl::Bus;

// Random sequential design: registers, xor/mux cloud, and (on most seeds) a
// synchronous-read RAM whose address, data and write-enable come from the
// random logic - the structure class where engine divergence would hide.
Netlist randomDesign(std::uint64_t seed, unsigned gates, bool withRam) {
  Rng rng(seed);
  Builder b;
  Bus in = b.input("in", 8);
  std::vector<rtl::NetId> pool = in;
  std::vector<rtl::Register> regs;
  for (unsigned r = 0; r < 3; ++r) {
    regs.push_back(b.makeRegister("q" + std::to_string(r), 4,
                                  rng.below(16)));
    pool.insert(pool.end(), regs.back().q.begin(), regs.back().q.end());
  }
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  for (unsigned g = 0; g < gates; ++g) {
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  if (withRam) {
    Bus addr, din;
    for (int k = 0; k < 3; ++k) addr.push_back(pick());
    for (int k = 0; k < 4; ++k) din.push_back(pick());
    std::vector<std::uint8_t> init(8);
    for (auto& v : init) v = static_cast<std::uint8_t>(rng.below(16));
    Bus q = b.ram("m", 3, 4, addr, din, pick(), init);
    pool.insert(pool.end(), q.begin(), q.end());
    for (int k = 0; k < 4; ++k) {
      pool.push_back(b.lxor(pick(), pick()));
    }
  }
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pick());
    b.connect(r, d);
  }
  Bus named;
  for (int k = 0; k < 4; ++k) named.push_back(b.lxor(pick(), pick()));
  b.nameBus("sig", named);
  for (auto n : named) pool.push_back(n);
  Bus out;
  for (int k = 0; k < 8; ++k) out.push_back(pick());
  b.output("out", out);
  return b.finish();
}

// -------------------------------------------- net-for-net random designs -----

TEST(CompiledEquivalence, RandomDesignsNetForNetUnderFaultCommands) {
  // ~200 random designs; every net compared every cycle while random
  // scalar simulator commands (the VFIT injection vocabulary) hit both
  // engines through the same abstract interface.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const bool withRam = seed % 4 != 0;
    const Netlist nl = randomDesign(seed, 30, withRam);
    const std::unique_ptr<sim::Engine> ev =
        sim::makeEngine(sim::EngineKind::EventDriven, nl);
    const std::unique_ptr<sim::Engine> cp =
        sim::makeEngine(sim::EngineKind::Compiled, nl);

    Rng rng(seed * 7919 + 1);
    std::vector<netlist::NetId> forceable;
    for (const auto& g : nl.gates()) forceable.push_back(g.out);

    for (int c = 0; c < 25; ++c) {
      const std::uint64_t stimulus = rng.below(256);
      for (sim::Engine* e : {ev.get(), cp.get()}) e->setInput("in", stimulus);

      // Random fault command, identical on both engines.
      const unsigned op = static_cast<unsigned>(rng.below(6));
      if (op == 0 && !forceable.empty()) {
        const auto net = forceable[rng.below(forceable.size())];
        const bool v = rng.coin();
        for (sim::Engine* e : {ev.get(), cp.get()}) e->force(net, v);
      } else if (op == 1 && !forceable.empty()) {
        const auto net = forceable[rng.below(forceable.size())];
        for (sim::Engine* e : {ev.get(), cp.get()}) e->release(net);
      } else if (op == 2 && nl.flopCount() != 0) {
        const netlist::FlopId f{
            static_cast<std::uint32_t>(rng.below(nl.flopCount()))};
        const bool v = rng.coin();
        for (sim::Engine* e : {ev.get(), cp.get()}) e->depositFlop(f, v);
      } else if (op == 3 && nl.ramCount() != 0) {
        const netlist::RamId r{0};
        const std::size_t row = rng.below(nl.ram(r).depth());
        const std::uint64_t v = rng.below(16);
        for (sim::Engine* e : {ev.get(), cp.get()}) e->depositRam(r, row, v);
      }
      for (sim::Engine* e : {ev.get(), cp.get()}) e->step();

      for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
        ASSERT_EQ(ev->netValue(netlist::NetId{n}),
                  cp->netValue(netlist::NetId{n}))
            << "seed " << seed << " cycle " << c << " net " << n << " ("
            << nl.netName(netlist::NetId{n}) << ")";
      }
      for (std::uint32_t f = 0; f < nl.flopCount(); ++f) {
        ASSERT_EQ(ev->flopState(netlist::FlopId{f}),
                  cp->flopState(netlist::FlopId{f}))
            << "seed " << seed << " cycle " << c << " flop " << f;
      }
      for (std::uint32_t r = 0; r < nl.ramCount(); ++r) {
        for (std::size_t row = 0; row < nl.ram(netlist::RamId{r}).depth();
             ++row) {
          ASSERT_EQ(ev->ramWord(netlist::RamId{r}, row),
                    cp->ramWord(netlist::RamId{r}, row))
              << "seed " << seed << " cycle " << c << " ram " << r << " row "
              << row;
        }
      }
    }
  }
}

// --------------------------------------- campaign experiment equivalence -----

Netlist campaignDesign() { return randomDesign(42, 40, true); }

void expectOutcomeEq(const campaign::ExperimentOutcome& a,
                     const campaign::ExperimentOutcome& b,
                     const std::string& what) {
  EXPECT_EQ(a.index, b.index) << what;
  EXPECT_EQ(a.outcome, b.outcome) << what << " index " << a.index;
  EXPECT_EQ(a.modeledSeconds, b.modeledSeconds) << what;
  EXPECT_EQ(a.configSeconds, b.configSeconds) << what;
  EXPECT_EQ(a.workloadSeconds, b.workloadSeconds) << what;
  EXPECT_EQ(a.hostSeconds, b.hostSeconds) << what;
  EXPECT_EQ(a.hasRecord, b.hasRecord) << what;
  if (a.hasRecord && b.hasRecord) {
    EXPECT_EQ(a.record.targetName, b.record.targetName) << what;
    EXPECT_EQ(a.record.injectCycle, b.record.injectCycle) << what;
    EXPECT_EQ(a.record.durationCycles, b.record.durationCycles) << what;
    EXPECT_EQ(a.record.outcome, b.record.outcome) << what;
    EXPECT_EQ(a.record.modeledSeconds, b.record.modeledSeconds) << what;
    EXPECT_EQ(a.record.component, b.record.component) << what;
  }
}

struct ModelClass {
  FaultModel model;
  TargetClass targets;
};

TEST(CompiledEquivalence, CampaignExperimentsFieldForFieldAcrossMatrix) {
  const Netlist nl = campaignDesign();
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  opt.engine = sim::EngineKind::Compiled;
  vfit::VfitTool tool(nl, 150, opt);

  const std::vector<ModelClass> matrix = {
      {FaultModel::BitFlip, TargetClass::SequentialFF},
      {FaultModel::BitFlip, TargetClass::MemoryBlockBit},
      {FaultModel::Pulse, TargetClass::CombinationalLut},
      {FaultModel::Pulse, TargetClass::CbInputLine},
      {FaultModel::Indetermination, TargetClass::SequentialFF},
      {FaultModel::Indetermination, TargetClass::CombinationalLut},
  };
  for (const auto& mc : matrix) {
    for (const auto& band : campaign::DurationBand::paperBands()) {
      CampaignSpec spec;
      spec.model = mc.model;
      spec.targets = mc.targets;
      spec.band = band;
      spec.experiments = 30;
      spec.seed = 77;
      const auto pool = tool.enumeratePool(spec);

      std::vector<unsigned> indices(spec.experiments);
      for (unsigned i = 0; i < spec.experiments; ++i) indices[i] = i;
      const auto wave = tool.runWaveAt(spec, pool, indices, 0);
      ASSERT_EQ(wave.size(), spec.experiments);
      for (unsigned i = 0; i < spec.experiments; ++i) {
        const auto serial = tool.runExperimentAt(spec, pool, i, 0);
        expectOutcomeEq(wave[i], serial,
                        std::string(campaign::toString(mc.model)) + "/" +
                            campaign::toString(mc.targets) + "/" + band.label);
      }
    }
  }
}

TEST(CompiledEquivalence, PartialWavesAndSubsetsMatchFullWaves) {
  // Lane assignment must not matter: any index subset, in any wave split,
  // returns exactly the per-index outcomes.
  const Netlist nl = campaignDesign();
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  opt.engine = sim::EngineKind::Compiled;
  vfit::VfitTool tool(nl, 120, opt);

  CampaignSpec spec;
  spec.model = FaultModel::Indetermination;
  spec.targets = TargetClass::CombinationalLut;
  spec.experiments = 63;
  spec.seed = 5;
  const auto pool = tool.enumeratePool(spec);

  std::vector<unsigned> all(63);
  for (unsigned i = 0; i < 63; ++i) all[i] = i;
  const auto full = tool.runWaveAt(spec, pool, all, 0);

  // Singleton waves.
  for (unsigned i : {0u, 17u, 62u}) {
    const std::vector<unsigned> one{i};
    const auto got = tool.runWaveAt(spec, pool, one, 0);
    ASSERT_EQ(got.size(), 1u);
    expectOutcomeEq(got[0], full[i], "singleton wave");
  }
  // A sparse subset (resume-gap shape).
  const std::vector<unsigned> sparse{3, 4, 9, 40, 41, 60};
  const auto got = tool.runWaveAt(spec, pool, sparse, 0);
  ASSERT_EQ(got.size(), sparse.size());
  for (std::size_t k = 0; k < sparse.size(); ++k) {
    expectOutcomeEq(got[k], full[sparse[k]], "sparse wave");
  }
}

// ------------------------------------------ whole-campaign artifact equality -

std::string artifactString(const campaign::CampaignResult& result) {
  return campaign::toRunArtifact(result, "equiv", /*includeMetrics=*/false)
      .toJson()
      .dump(2);
}

TEST(CompiledEquivalence, WaveBoundarySweepArtifactsIdentical) {
  // 1 / 63 / 64 / 65 / 128 experiments: below, at, and straddling wave
  // boundaries, the compiled campaign must serialize byte-identically to
  // the event-driven one.
  const Netlist nl = campaignDesign();
  for (const unsigned n : {1u, 63u, 64u, 65u, 128u}) {
    CampaignSpec spec;
    spec.model = FaultModel::BitFlip;
    spec.targets = TargetClass::SequentialFF;
    spec.experiments = n;
    spec.seed = 1234;

    vfit::VfitOptions ev;
    ev.observedOutputs = {"out"};
    ev.keepRecords = true;
    vfit::VfitTool evTool(nl, 120, ev);

    vfit::VfitOptions cp = ev;
    cp.engine = sim::EngineKind::Compiled;
    vfit::VfitTool cpTool(nl, 120, cp);

    EXPECT_EQ(artifactString(campaign::runCampaign(evTool, spec)),
              artifactString(campaign::runCampaign(cpTool, spec)))
        << n << " experiments";
  }
}

TEST(CompiledEquivalence, ParallelRunnerJobsAndCheckpointInvariance) {
  // Engines x (caller-owned tool, run twice | runner at 1/4/8 jobs) x
  // checkpoint spacing all produce one artifact string.
  const Netlist nl = campaignDesign();
  CampaignSpec spec;
  spec.model = FaultModel::Pulse;
  spec.targets = TargetClass::CombinationalLut;
  spec.experiments = 100;
  spec.seed = 99;

  std::vector<std::string> artifacts;
  for (const auto engine :
       {sim::EngineKind::EventDriven, sim::EngineKind::Compiled}) {
    for (const unsigned ck : {32u, 128u}) {
      vfit::VfitOptions opt;
      opt.observedOutputs = {"out"};
      opt.keepRecords = true;
      opt.engine = engine;
      opt.checkpointInterval = ck;
      vfit::VfitTool tool(nl, 120, opt);
      artifacts.push_back(artifactString(campaign::runCampaign(tool, spec)));
      artifacts.push_back(artifactString(campaign::runCampaign(tool, spec)));
      for (const unsigned jobs : {1u, 4u, 8u}) {
        campaign::ParallelOptions popt;
        popt.jobs = jobs;
        campaign::ParallelCampaignRunner runner(
            vfit::vfitEngineFactory(nl, 120, opt), popt);
        artifacts.push_back(artifactString(runner.run(spec)));
      }
    }
  }
  for (std::size_t i = 1; i < artifacts.size(); ++i) {
    EXPECT_EQ(artifacts[0], artifacts[i]) << "variant " << i;
  }
}

// --------------------------------------------------- MC8051 full workload ----

TEST(CompiledEquivalence, Mc8051BubblesortFfAndRamCampaigns) {
  const auto workload = mc8051::bubblesort(6);
  const Netlist nl = mc8051::buildCore(workload.bytes);

  vfit::VfitOptions ev;
  ev.keepRecords = true;
  vfit::VfitTool evTool(nl, workload.cycles, ev);

  vfit::VfitOptions cp = ev;
  cp.engine = sim::EngineKind::Compiled;
  vfit::VfitTool cpTool(nl, workload.cycles, cp);

  // Compiled golden lane must match the event-driven golden run already at
  // construction time (both tools ran the identical golden).
  ASSERT_EQ(evTool.golden().outputs, cpTool.golden().outputs);

  for (const auto targets :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit}) {
    CampaignSpec spec;
    spec.model = FaultModel::BitFlip;
    spec.targets = targets;
    spec.experiments = 40;
    spec.seed = 2006;
    EXPECT_EQ(artifactString(campaign::runCampaign(evTool, spec)),
              artifactString(campaign::runCampaign(cpTool, spec)))
        << campaign::toString(targets);
  }
}

}  // namespace
}  // namespace fades
