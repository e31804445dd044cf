// Determinism-equivalence suite for the sharded campaign runner: the same
// campaign run serially, and sharded across 1, 2 and 8 workers, must
// produce identical outcome tallies, per-experiment records and modeled
// cost - bit-for-bit. Sharding is allowed to change wall-clock and nothing
// else.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rtl/demo.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::EngineFactory;
using campaign::ExperimentOutcome;
using campaign::FaultModel;
using campaign::Outcome;
using campaign::ParallelCampaignRunner;
using campaign::ParallelOptions;
using campaign::TargetClass;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;

/// The demo design (rtl::demoDesign) implemented on the small device.
struct MiniDesign {
  netlist::Netlist nl = rtl::demoDesign();
  synth::Implementation impl =
      synth::implement(nl, fpga::DeviceSpec::small());
  std::uint64_t cycles = 64;

  static const MiniDesign& instance() {
    static MiniDesign d;
    return d;
  }
};

FadesOptions miniOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

EngineFactory miniFactory(FadesOptions opt = miniOptions()) {
  const auto& d = MiniDesign::instance();
  return core::fadesEngineFactory(d.impl, d.cycles, std::move(opt));
}

/// Field-for-field, bit-for-bit comparison of two campaign results.
void expectSameResult(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.latents, b.latents);
  EXPECT_EQ(a.silents, b.silents);
  EXPECT_EQ(a.modeledSeconds.count(), b.modeledSeconds.count());
  // EXPECT_EQ on doubles asserts exact (bitwise) equality - the point of
  // the index-ordered fold.
  EXPECT_EQ(a.modeledSeconds.sum(), b.modeledSeconds.sum());
  EXPECT_EQ(a.modeledSeconds.mean(), b.modeledSeconds.mean());
  EXPECT_EQ(a.modeledSeconds.stddev(), b.modeledSeconds.stddev());
  EXPECT_EQ(a.modeledSeconds.min(), b.modeledSeconds.min());
  EXPECT_EQ(a.modeledSeconds.max(), b.modeledSeconds.max());
  EXPECT_EQ(a.cost.configSeconds, b.cost.configSeconds);
  EXPECT_EQ(a.cost.workloadSeconds, b.cost.workloadSeconds);
  EXPECT_EQ(a.cost.hostSeconds, b.cost.hostSeconds);
  EXPECT_EQ(a.cost.bytesToDevice, b.cost.bytesToDevice);
  EXPECT_EQ(a.cost.bytesFromDevice, b.cost.bytesFromDevice);
  EXPECT_EQ(a.cost.sessions, b.cost.sessions);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.records[i].targetName, b.records[i].targetName);
    EXPECT_EQ(a.records[i].injectCycle, b.records[i].injectCycle);
    EXPECT_EQ(a.records[i].durationCycles, b.records[i].durationCycles);
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
    EXPECT_EQ(a.records[i].modeledSeconds, b.records[i].modeledSeconds);
  }
}

std::string artifactString(const CampaignResult& result) {
  return campaign::toRunArtifact(result, "shards", /*includeMetrics=*/false)
      .toJson()
      .dump(2);
}

CampaignSpec miniSpec(FaultModel model, TargetClass targets,
                      unsigned experiments = 24) {
  CampaignSpec spec;
  spec.model = model;
  spec.targets = targets;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = DurationBand::shortBand();
  spec.experiments = experiments;
  spec.seed = 77;
  return spec;
}

// ------------------------------------------- shard-count invariance -----

class ShardInvariance
    : public ::testing::TestWithParam<std::pair<FaultModel, TargetClass>> {};

TEST_P(ShardInvariance, OneTwoAndEightShardsAgreeWithSerial) {
  const auto [model, targets] = GetParam();
  const auto spec = miniSpec(model, targets);

  // Reference: the runner's loop on a tool the test owns. A second campaign
  // on the same (now dirty) device must serialize identically.
  const auto& d = MiniDesign::instance();
  fpga::Device device(d.impl.spec);
  FadesTool tool(device, d.impl, d.cycles, miniOptions());
  const CampaignResult borrowed = campaign::runCampaign(tool, spec);
  ASSERT_EQ(borrowed.total(), spec.experiments);
  ASSERT_EQ(borrowed.records.size(), spec.experiments);
  const std::string text = artifactString(borrowed);
  EXPECT_EQ(text, artifactString(campaign::runCampaign(tool, spec)));

  for (unsigned jobs : {1u, 2u, 4u, 8u}) {
    ParallelOptions popt;
    popt.jobs = jobs;
    ParallelCampaignRunner runner(miniFactory(), popt);
    const CampaignResult sharded = runner.run(spec);
    expectSameResult(borrowed, sharded, "jobs=" + std::to_string(jobs));
    EXPECT_EQ(text, artifactString(sharded)) << "jobs=" << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ShardInvariance,
    ::testing::Values(
        std::pair{FaultModel::BitFlip, TargetClass::SequentialFF},
        std::pair{FaultModel::BitFlip, TargetClass::MemoryBlockBit},
        std::pair{FaultModel::Pulse, TargetClass::CombinationalLut},
        std::pair{FaultModel::Indetermination, TargetClass::SequentialFF},
        std::pair{FaultModel::Delay, TargetClass::CombinationalLine}));

TEST(ParallelCampaign, RepeatedRunsOnOneRunnerStayIdentical) {
  // Engine replicas are reused across run() calls; the stateless derivation
  // means a reused (dirty) replica still reproduces the campaign exactly.
  ParallelOptions popt;
  popt.jobs = 3;
  ParallelCampaignRunner runner(miniFactory(), popt);
  const auto spec = miniSpec(FaultModel::Pulse, TargetClass::CombinationalLut);
  const auto first = runner.run(spec);
  const auto second = runner.run(spec);
  expectSameResult(first, second, "rerun on reused replicas");
}

TEST(ParallelCampaign, MoreShardsThanExperiments) {
  ParallelOptions popt;
  popt.jobs = 8;
  ParallelCampaignRunner runner(miniFactory(), popt);
  auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF, 3);
  const auto r = runner.run(spec);
  EXPECT_EQ(r.total(), 3u);
  EXPECT_EQ(r.records.size(), 3u);
}

TEST(ParallelCampaign, JobsZeroResolvesToHardwareConcurrency) {
  ParallelOptions popt;
  popt.jobs = 0;
  ParallelCampaignRunner runner(miniFactory(), popt);
  EXPECT_GE(runner.jobs(), 1u);
}

// ---------------------------------------------- synthetic engine tests -----

/// Deterministic engine computed from the index alone - no device behind
/// it, so these tests exercise the runner's scheduling and merge logic in
/// isolation (and fast).
class SyntheticEngine final : public campaign::CampaignEngine {
 public:
  explicit SyntheticEngine(unsigned failAt = ~0u) : failAt_(failAt) {}

  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override {
    return {0, 1, 2, static_cast<std::uint32_t>(spec.seed & 0xff)};
  }

  ExperimentOutcome runExperimentAt(const CampaignSpec& /*spec*/,
                                    std::span<const std::uint32_t> pool,
                                    unsigned index,
                                    unsigned /*rerun*/) override {
    if (index == failAt_) throw std::runtime_error("synthetic failure");
    ExperimentOutcome out;
    out.index = index;
    out.outcome = index % 3 == 0   ? Outcome::Failure
                  : index % 3 == 1 ? Outcome::Latent
                                   : Outcome::Silent;
    out.modeledSeconds = 0.25 + 0.001 * index;
    out.configSeconds = 0.1 * index;
    out.workloadSeconds = 0.5;
    out.hostSeconds = 0.025;
    out.bytesToDevice = 10 + index;
    out.bytesFromDevice = pool.size();
    out.sessions = 1;
    out.hasRecord = true;
    out.record = {"t" + std::to_string(index), index, 1.5, out.outcome,
                  out.modeledSeconds};
    return out;
  }

 private:
  unsigned failAt_;
};

TEST(ParallelCampaign, MergePreservesIndexOrderAcrossShardCounts) {
  CampaignSpec spec;
  spec.experiments = 57;  // deliberately not a multiple of the job counts
  spec.seed = 9;
  CampaignResult reference;
  for (unsigned jobs : {1u, 2u, 5u, 8u}) {
    ParallelOptions popt;
    popt.jobs = jobs;
    ParallelCampaignRunner runner(
        [] { return std::make_unique<SyntheticEngine>(); }, popt);
    const auto r = runner.run(spec);
    ASSERT_EQ(r.records.size(), 57u);
    for (unsigned i = 0; i < 57; ++i) {
      EXPECT_EQ(r.records[i].targetName, "t" + std::to_string(i));
    }
    if (jobs == 1) {
      reference = r;
    } else {
      expectSameResult(reference, r, "jobs=" + std::to_string(jobs));
    }
  }
}

TEST(ParallelCampaign, WorkerExceptionPropagates) {
  ParallelOptions popt;
  popt.jobs = 4;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(/*failAt=*/13); }, popt);
  CampaignSpec spec;
  spec.experiments = 40;
  EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(ParallelCampaign, FactoryExceptionPropagates) {
  ParallelOptions popt;
  popt.jobs = 4;
  ParallelCampaignRunner runner(
      []() -> std::unique_ptr<campaign::CampaignEngine> {
        throw std::runtime_error("no replica for you");
      },
      popt);
  CampaignSpec spec;
  spec.experiments = 8;
  EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(ParallelCampaign, NullEngineFromFactoryIsRejected) {
  ParallelOptions popt;
  popt.jobs = 2;
  ParallelCampaignRunner runner(
      []() -> std::unique_ptr<campaign::CampaignEngine> { return nullptr; },
      popt);
  CampaignSpec spec;
  spec.experiments = 4;
  EXPECT_THROW(runner.run(spec), common::FadesError);
}

TEST(ParallelCampaign, EmptyFactoryIsRejected) {
  EXPECT_THROW(ParallelCampaignRunner(EngineFactory{}), common::FadesError);
}

// ------------------------------------------------- progress heartbeat -----

/// Capture structured log records for the duration of a test.
class SinkCapture {
 public:
  SinkCapture() {
    obs::Logger::global().setSink(
        [this](const obs::LogRecord& r) { records_.push_back(r); });
  }
  ~SinkCapture() { obs::Logger::global().setSink({}); }
  const std::vector<obs::LogRecord>& records() const { return records_; }

 private:
  std::vector<obs::LogRecord> records_;
};

TEST(ParallelCampaign, HeartbeatAggregatesAcrossShards) {
  SinkCapture capture;
  CampaignSpec spec;
  spec.experiments = 20;
  ParallelOptions popt;
  popt.jobs = 4;
  popt.progressInterval = 5;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(); }, popt);
  const auto r = runner.run(spec);
  ASSERT_EQ(r.total(), 20u);

  // One campaign-level heartbeat per interval - not one per shard - with
  // strictly increasing campaign-wide "done" counts.
  std::vector<unsigned> done;
  for (const auto& rec : capture.records()) {
    if (rec.message != "campaign progress") continue;
    for (const auto& f : rec.fields) {
      if (f.key == "done") {
        done.push_back(static_cast<unsigned>(std::stoul(f.value)));
      }
    }
  }
  EXPECT_EQ(done, (std::vector<unsigned>{5, 10, 15, 20}));
  EXPECT_DOUBLE_EQ(
      obs::Registry::global().gauge("campaign.progress_pct").value(), 100.0);
}

TEST(ParallelCampaign, HeartbeatFinalLineCarriesFullTallies) {
  SinkCapture capture;
  CampaignSpec spec;
  spec.experiments = 12;
  ParallelOptions popt;
  popt.jobs = 3;
  popt.progressInterval = 12;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(); }, popt);
  const auto r = runner.run(spec);

  const obs::LogRecord* last = nullptr;
  for (const auto& rec : capture.records()) {
    if (rec.message == "campaign progress") last = &rec;
  }
  ASSERT_NE(last, nullptr);
  auto field = [&](const std::string& key) -> std::string {
    for (const auto& f : last->fields) {
      if (f.key == key) return f.value;
    }
    return "";
  };
  EXPECT_EQ(field("done"), "12");
  EXPECT_EQ(field("total"), "12");
  EXPECT_EQ(field("failures"), std::to_string(r.failures));
  EXPECT_EQ(field("latents"), std::to_string(r.latents));
  EXPECT_EQ(field("silents"), std::to_string(r.silents));
}

}  // namespace
}  // namespace fades
