// Early silent exit in FADES: an experiment stops as soon as the device is
// back on the golden run (same dynamic state and same logic configuration
// as the golden checkpoint of that cycle) and is classified Silent.
//
// `EarlyExitEquivalence` proves the shortcut exact by direct execution: every
// campaign runs twice, once with golden checkpoints every kInterval cycles
// (the check armed) and once with checkpointInterval >= runCycles, whose only
// checkpoint is cycle 0, so the check can never fire after an injection and
// every experiment runs to its end. Records are compared field by field and
// modeled seconds bit for bit; every case also asserts that early exits
// really happened, so none can pass vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::ExperimentOutcome;
using campaign::FaultModel;
using campaign::Outcome;
using campaign::TargetClass;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;
using rtl::Bus;

constexpr std::uint64_t kCycles = 96;
constexpr unsigned kInterval = 8;

/// A design where most faults wash out. An 8-bit LFSR and a 4-bit counter
/// feed a three-stage pipeline reloaded on every edge (s1 = lfsr ^ cnt,
/// s2 = s1 + lfsr, s3 = s2 as a plain copy, i.e. bypass-input flip-flops).
/// Only s3[1:0] is observed; s3[7:2] goes to an unobserved debug port that
/// keeps the upper cone implemented. A write-only RAM logs the LFSR at row
/// `cnt`, so every row is rewritten within 16 cycles. Faults in the upper
/// pipeline and in the log are silent and leave the device back on the
/// golden run a few cycles later; faults in the LFSR and counter persist.
struct ConvergingDesign {
  netlist::Netlist nl;
  synth::Implementation impl;

  static netlist::Netlist build() {
    rtl::Builder b;
    b.setUnit(Unit::Registers);
    rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
    auto fb = b.lxor(lfsr.q[7],
                     b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
    Bus next{fb};
    for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
    b.connect(lfsr, next);
    b.setUnit(Unit::Fsm);
    rtl::Register cnt = b.makeRegister("cnt", 4, 0);
    b.connect(cnt, b.increment(cnt.q));
    b.setUnit(Unit::Alu);
    const Bus s1 = b.registered("s1", b.bXor(lfsr.q, b.zeroExtend(cnt.q, 8)));
    const Bus s2 = b.registered("s2", b.add(s1, lfsr.q, b.zero()).sum);
    const Bus s3 = b.registered("s3", s2);
    b.setUnit(Unit::Ram);
    b.ram("log", 4, 8, cnt.q, lfsr.q, b.one());
    b.output("out", b.slice(s3, 0, 2));
    b.output("dbg", b.slice(s3, 2, 6));
    return b.finish();
  }

  ConvergingDesign()
      : nl(build()), impl(synth::implement(nl, fpga::DeviceSpec::small())) {}

  static const ConvergingDesign& instance() {
    static ConvergingDesign d;
    return d;
  }
};

FadesOptions baseOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

/// `opt` with the early-exit check armed (kInterval) or unable to fire
/// (a single checkpoint at cycle 0).
FadesOptions withInterval(FadesOptions opt, bool armed) {
  opt.checkpointInterval = armed ? kInterval : kCycles;
  return opt;
}

obs::Counter& earlyExits() {
  return obs::Registry::global().counter("fades.early_silent_exits");
}
obs::Counter& cyclesExecuted() {
  return obs::Registry::global().counter("fades.cycles_executed");
}

struct Rig {
  fpga::Device device;
  FadesTool tool;
  explicit Rig(const FadesOptions& opt)
      : device(ConvergingDesign::instance().impl.spec),
        tool(device, ConvergingDesign::instance().impl, kCycles, opt) {}
};

CampaignSpec makeSpec(FaultModel model, TargetClass targets,
                      DurationBand band, unsigned experiments,
                      std::uint64_t seed) {
  CampaignSpec spec;
  spec.model = model;
  spec.targets = targets;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = band;
  spec.experiments = experiments;
  spec.seed = seed;
  return spec;
}

void expectOutcomeEq(const ExperimentOutcome& fast,
                     const ExperimentOutcome& full) {
  EXPECT_EQ(fast.index, full.index);
  EXPECT_EQ(fast.outcome, full.outcome);
  EXPECT_EQ(fast.modeledSeconds, full.modeledSeconds);
  EXPECT_EQ(fast.configSeconds, full.configSeconds);
  EXPECT_EQ(fast.workloadSeconds, full.workloadSeconds);
  EXPECT_EQ(fast.hostSeconds, full.hostSeconds);
  EXPECT_EQ(fast.bytesToDevice, full.bytesToDevice);
  EXPECT_EQ(fast.bytesFromDevice, full.bytesFromDevice);
  EXPECT_EQ(fast.sessions, full.sessions);
  EXPECT_EQ(fast.attempts, full.attempts);
  EXPECT_EQ(fast.quarantined, full.quarantined);
  ASSERT_EQ(fast.hasRecord, full.hasRecord);
  EXPECT_EQ(fast.record.targetName, full.record.targetName);
  EXPECT_EQ(fast.record.injectCycle, full.record.injectCycle);
  EXPECT_EQ(fast.record.durationCycles, full.record.durationCycles);
  EXPECT_EQ(fast.record.outcome, full.record.outcome);
  EXPECT_EQ(fast.record.modeledSeconds, full.record.modeledSeconds);
  EXPECT_EQ(fast.record.component, full.record.component);
  EXPECT_EQ(fast.record.pc, full.record.pc);
  EXPECT_EQ(fast.record.opcode, full.record.opcode);
  EXPECT_EQ(fast.record.detectCycle, full.record.detectCycle);
  EXPECT_EQ(fast.record.prunedFrom, full.record.prunedFrom);
}

void expectRecordEq(const campaign::ExperimentRecord& a,
                    const campaign::ExperimentRecord& b) {
  ExperimentOutcome x, y;
  x.hasRecord = y.hasRecord = true;
  x.record = a;
  y.record = b;
  expectOutcomeEq(x, y);
}

void expectResultEq(const CampaignResult& fast, const CampaignResult& full) {
  EXPECT_EQ(fast.failures, full.failures);
  EXPECT_EQ(fast.latents, full.latents);
  EXPECT_EQ(fast.silents, full.silents);
  EXPECT_EQ(fast.modeledSeconds.sum(), full.modeledSeconds.sum());
  EXPECT_EQ(fast.cost.configSeconds, full.cost.configSeconds);
  EXPECT_EQ(fast.cost.bytesToDevice, full.cost.bytesToDevice);
  EXPECT_EQ(fast.cost.bytesFromDevice, full.cost.bytesFromDevice);
  EXPECT_EQ(fast.cost.sessions, full.cost.sessions);
  ASSERT_EQ(fast.quarantined.size(), full.quarantined.size());
  for (std::size_t i = 0; i < fast.quarantined.size(); ++i) {
    EXPECT_EQ(fast.quarantined[i].index, full.quarantined[i].index);
  }
  ASSERT_EQ(fast.records.size(), full.records.size());
  for (std::size_t i = 0; i < fast.records.size(); ++i) {
    expectRecordEq(fast.records[i], full.records[i]);
  }
  // The artifact is what the tools write; it must not move by one byte.
  EXPECT_EQ(campaign::toRunArtifact(fast, "x", false).toJson().dump(),
            campaign::toRunArtifact(full, "x", false).toJson().dump());
}

/// Run `spec` experiment by experiment on an armed rig and a full-length
/// reference rig and compare every outcome. Returns the armed rig's early
/// exits; asserts the reference rig had none.
std::uint64_t compareExperiments(const CampaignSpec& spec,
                                 const FadesOptions& opt) {
  Rig fast(withInterval(opt, true));
  Rig full(withInterval(opt, false));
  const auto pool = fast.tool.enumeratePool(spec);
  EXPECT_EQ(pool, full.tool.enumeratePool(spec));
  std::uint64_t exits = 0;
  for (unsigned e = 0; e < spec.experiments; ++e) {
    const std::uint64_t before = earlyExits().value();
    const auto a = fast.tool.runExperimentAt(spec, pool, e, 0);
    exits += earlyExits().value() - before;
    const std::uint64_t mid = earlyExits().value();
    const auto b = full.tool.runExperimentAt(spec, pool, e, 0);
    EXPECT_EQ(earlyExits().value(), mid) << "reference run exited early";
    expectOutcomeEq(a, b);
  }
  return exits;
}

// ------------------------------------------------- EarlyExitEquivalence ---

TEST(EarlyExitEquivalence, BitFlipFlopsViaLsr) {
  const auto spec = makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                             DurationBand::shortBand(), 80, 11);
  EXPECT_GT(compareExperiments(spec, baseOptions()), 0u);
}

TEST(EarlyExitEquivalence, BitFlipFlopsViaGsr) {
  FadesOptions opt = baseOptions();
  opt.bitFlipVia = core::BitFlipVia::Gsr;
  const auto spec = makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                             DurationBand::shortBand(), 80, 12);
  EXPECT_GT(compareExperiments(spec, opt), 0u);
}

TEST(EarlyExitEquivalence, BitFlipMemory) {
  const auto spec = makeSpec(FaultModel::BitFlip, TargetClass::MemoryBlockBit,
                             DurationBand::shortBand(), 60, 13);
  EXPECT_GT(compareExperiments(spec, baseOptions()), 0u);
}

TEST(EarlyExitEquivalence, PulseLut) {
  for (const auto& band : DurationBand::paperBands()) {
    const auto spec = makeSpec(FaultModel::Pulse,
                               TargetClass::CombinationalLut, band, 60, 14);
    EXPECT_GT(compareExperiments(spec, baseOptions()), 0u) << band.label;
  }
}

TEST(EarlyExitEquivalence, PulseCbInput) {
  const auto spec = makeSpec(FaultModel::Pulse, TargetClass::CbInputLine,
                             DurationBand::shortBand(), 60, 15);
  EXPECT_GT(compareExperiments(spec, baseOptions()), 0u);
}

TEST(EarlyExitEquivalence, DelayShiftRegister) {
  FadesOptions opt = baseOptions();
  opt.delayVia = core::DelayVia::ShiftRegister;
  std::uint64_t exits = 0;
  for (const auto cls :
       {TargetClass::SequentialLine, TargetClass::CombinationalLine}) {
    exits += compareExperiments(
        makeSpec(FaultModel::Delay, cls, DurationBand::shortBand(), 40, 16),
        opt);
  }
  EXPECT_GT(exits, 0u);
}

TEST(EarlyExitEquivalence, DelayFanoutWithTiming) {
  // Fan-out delays act through the timing model; the first such experiment
  // switches timing on and it stays on for the rest of the campaign.
  FadesOptions opt = baseOptions();
  opt.delayVia = core::DelayVia::Fanout;
  std::uint64_t exits = 0;
  for (const auto cls :
       {TargetClass::SequentialLine, TargetClass::CombinationalLine}) {
    exits += compareExperiments(
        makeSpec(FaultModel::Delay, cls, DurationBand::shortBand(), 40, 17),
        opt);
  }
  EXPECT_GT(exits, 0u);
}

TEST(EarlyExitEquivalence, IndeterminationFlopsAndLuts) {
  for (const bool oscillating : {false, true}) {
    FadesOptions opt = baseOptions();
    opt.oscillatingIndetermination = oscillating;
    for (const auto cls :
         {TargetClass::SequentialFF, TargetClass::CombinationalLut}) {
      const auto spec = makeSpec(FaultModel::Indetermination, cls,
                                 DurationBand::shortBand(), 50, 18);
      EXPECT_GT(compareExperiments(spec, opt), 0u)
          << campaign::toString(cls) << " oscillating=" << oscillating;
    }
  }
}

TEST(EarlyExitEquivalence, MultipleBitFlips) {
  Rig fast(withInterval(baseOptions(), true));
  Rig full(withInterval(baseOptions(), false));
  const auto flops = fast.tool.targets(FaultModel::BitFlip,
                                       TargetClass::SequentialFF, Unit::None);
  common::Rng rng(19);
  std::uint64_t exits = 0;
  for (unsigned e = 0; e < 60; ++e) {
    std::vector<std::uint32_t> set;
    const unsigned multiplicity = 2 + static_cast<unsigned>(rng.below(2));
    while (set.size() < multiplicity) {
      const auto f = flops[rng.below(flops.size())];
      if (std::find(set.begin(), set.end(), f) == set.end()) set.push_back(f);
    }
    const std::uint64_t cycle = rng.below(kCycles);
    double sFast = 0, sFull = 0;
    const std::uint64_t before = earlyExits().value();
    const Outcome oFast =
        fast.tool.runMultipleBitFlipExperiment(set, cycle, &sFast);
    exits += earlyExits().value() - before;
    const Outcome oFull =
        full.tool.runMultipleBitFlipExperiment(set, cycle, &sFull);
    EXPECT_EQ(oFast, oFull) << "MBU #" << e << " @" << cycle;
    EXPECT_EQ(sFast, sFull) << "MBU #" << e << " @" << cycle;
  }
  EXPECT_GT(exits, 0u);
}

TEST(EarlyExitEquivalence, SerialRunCampaign) {
  const auto spec = makeSpec(FaultModel::Pulse, TargetClass::CombinationalLut,
                             DurationBand::longBand(), 80, 20);
  Rig fast(withInterval(baseOptions(), true));
  Rig full(withInterval(baseOptions(), false));
  const std::uint64_t before = earlyExits().value();
  const auto a = campaign::runCampaign(fast.tool, spec);
  EXPECT_GT(earlyExits().value(), before);
  const std::uint64_t mid = earlyExits().value();
  const auto b = campaign::runCampaign(full.tool, spec);
  EXPECT_EQ(earlyExits().value(), mid);
  expectResultEq(a, b);
}

TEST(EarlyExitEquivalence, ParallelRunnerAtJobs1And4) {
  const auto& impl = ConvergingDesign::instance().impl;
  const auto spec = makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                             DurationBand::shortBand(), 120, 21);
  campaign::ParallelOptions ref;
  campaign::ParallelCampaignRunner fullRunner(
      core::fadesEngineFactory(impl, kCycles,
                               withInterval(baseOptions(), false)),
      ref);
  const auto full = fullRunner.run(spec);
  for (const unsigned jobs : {1u, 4u}) {
    campaign::ParallelOptions popt;
    popt.jobs = jobs;
    campaign::ParallelCampaignRunner runner(
        core::fadesEngineFactory(impl, kCycles,
                                 withInterval(baseOptions(), true)),
        popt);
    const std::uint64_t before = earlyExits().value();
    const auto fast = runner.run(spec);
    EXPECT_GT(earlyExits().value(), before) << "jobs " << jobs;
    expectResultEq(fast, full);
  }
}

TEST(EarlyExitEquivalence, UnreliableLink) {
  // Retries draw from per-(index, rerun) link streams and the final-state
  // readback is charged on both paths, so the link sees the same operation
  // sequence whether or not an experiment exits early.
  FadesOptions opt = baseOptions();
  opt.linkFaults.readCrcRate = 0.05;
  opt.linkFaults.writeFailRate = 0.05;
  opt.linkFaults.timeoutRate = 0.01;
  const auto spec = makeSpec(FaultModel::Pulse, TargetClass::CombinationalLut,
                             DurationBand::shortBand(), 80, 22);
  Rig fast(withInterval(opt, true));
  Rig full(withInterval(opt, false));
  const std::uint64_t before = earlyExits().value();
  const auto a = campaign::runCampaign(fast.tool, spec);
  EXPECT_GT(earlyExits().value(), before);
  const auto b = campaign::runCampaign(full.tool, spec);
  expectResultEq(a, b);
}

// ------------------------------------------------------------- counters ---

std::uint32_t flopNamed(const FadesTool& tool, const std::string& name) {
  for (const auto h : tool.targets(FaultModel::BitFlip,
                                   TargetClass::SequentialFF, Unit::None)) {
    if (tool.targetName(TargetClass::SequentialFF, h) == name) return h;
  }
  ADD_FAILURE() << "no flip-flop named " << name;
  return 0;
}

TEST(EarlyExitCounters, MatchHandCountedCampaign) {
  // Three bit-flips with checkpoints every 8 cycles, counted by hand:
  //  - s3[7] @10: replay 8..10 (2 cycles); s3 reloads on the next edge, so
  //    the boundary check at 16 finds the golden state: 6 more cycles,
  //    Silent, one early exit;
  //  - s3[7] @90: replay 88..90 (2); no boundary lies in (90, 96), so it
  //    runs to the end (6), Silent by the full final-state comparison;
  //  - s3[0] @20: replay 16..20 (4); s3[0] drives an observed pad, so the
  //    trace diverges at cycle 20 and the run stops after that cycle (1).
  Rig rig(withInterval(baseOptions(), true));
  const auto hi = flopNamed(rig.tool, "s3[7]");
  const auto lo = flopNamed(rig.tool, "s3[0]");
  const std::uint64_t exits0 = earlyExits().value();
  const std::uint64_t cycles0 = cyclesExecuted().value();
  common::Rng rng(1);
  std::int64_t detect = 0;
  EXPECT_EQ(rig.tool.runExperiment(FaultModel::BitFlip,
                                   TargetClass::SequentialFF, hi, 10, 1.0,
                                   rng),
            Outcome::Silent);
  EXPECT_EQ(earlyExits().value() - exits0, 1u);
  EXPECT_EQ(cyclesExecuted().value() - cycles0, 8u);
  EXPECT_EQ(rig.tool.runExperiment(FaultModel::BitFlip,
                                   TargetClass::SequentialFF, hi, 90, 1.0,
                                   rng),
            Outcome::Silent);
  EXPECT_EQ(rig.tool.runExperiment(
                FaultModel::BitFlip, TargetClass::SequentialFF, lo, 20, 1.0,
                rng, nullptr, nullptr, &detect),
            Outcome::Failure);
  EXPECT_EQ(detect, 20);
  EXPECT_EQ(earlyExits().value() - exits0, 1u);
  EXPECT_EQ(cyclesExecuted().value() - cycles0, 8u + 8u + 5u);

  // The full-length reference replays from cycle 0 and never exits early.
  Rig full(withInterval(baseOptions(), false));
  const std::uint64_t cycles1 = cyclesExecuted().value();
  EXPECT_EQ(full.tool.runExperiment(FaultModel::BitFlip,
                                    TargetClass::SequentialFF, hi, 10, 1.0,
                                    rng),
            Outcome::Silent);
  EXPECT_EQ(cyclesExecuted().value() - cycles1, kCycles);
  EXPECT_EQ(earlyExits().value() - exits0, 1u);
}

TEST(EarlyExitCounters, LogicPlaneOffTheGoldenBitstreamBlocksTheExit) {
  // The same flip as the first hand-counted case, but with one truth-table
  // bit of an unused CB changed behind the tool: behaviour is unaffected,
  // yet the configuration no longer equals the golden bitstream, so the
  // check must not fire and the run goes to the end (8..96).
  Rig rig(withInterval(baseOptions(), true));
  fpga::Device& dev = rig.tool.device();
  const auto& layout = dev.layout();
  bool changed = false;
  for (std::uint16_t x = 0; x < dev.spec().cols && !changed; ++x) {
    for (std::uint16_t y = 0; y < dev.spec().rows && !changed; ++y) {
      const fpga::CbCoord cb{x, y};
      if (dev.logicBit(layout.cbFieldBit(cb, fpga::CbField::FfUsed)) ||
          dev.logicBit(layout.cbFieldBit(cb, fpga::CbField::LutUsed))) {
        continue;
      }
      const std::size_t bit = layout.cbLutBit(cb, 0);
      dev.setLogicBit(bit, !dev.logicBit(bit));
      changed = true;
    }
  }
  ASSERT_TRUE(changed);
  const std::uint64_t exits0 = earlyExits().value();
  const std::uint64_t cycles0 = cyclesExecuted().value();
  common::Rng rng(1);
  EXPECT_EQ(rig.tool.runExperiment(FaultModel::BitFlip,
                                   TargetClass::SequentialFF,
                                   flopNamed(rig.tool, "s3[7]"), 10, 1.0, rng),
            Outcome::Silent);
  EXPECT_EQ(earlyExits().value(), exits0);
  EXPECT_EQ(cyclesExecuted().value() - cycles0, kCycles - 8);
}

TEST(EarlyExitCounters, StayOutOfTheRunArtifact) {
  Rig rig(withInterval(baseOptions(), true));
  const auto result = campaign::runCampaign(
      rig.tool, makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                         DurationBand::shortBand(), 20, 23));
  ASSERT_GT(cyclesExecuted().value(), 0u);
  const std::string written =
      campaign::toRunArtifact(result, "x", /*includeMetrics=*/false)
          .toJson()
          .dump();
  EXPECT_EQ(written.find("fades.cycles_executed"), std::string::npos);
  EXPECT_EQ(written.find("fades.early_silent_exits"), std::string::npos);
  // Not vacuous: the metrics snapshot does carry them when asked for.
  const std::string withMetrics =
      campaign::toRunArtifact(result, "x", /*includeMetrics=*/true)
          .toJson()
          .dump();
  EXPECT_NE(withMetrics.find("fades.cycles_executed"), std::string::npos);
  EXPECT_NE(withMetrics.find("fades.early_silent_exits"), std::string::npos);
}

}  // namespace
}  // namespace fades
