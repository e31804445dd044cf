// Tests of the campaign benchmark's own logic: the tail-percentile rule,
// self time on nested spans, and the correctness checks failing on a
// tampered artifact or a replay that does not match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "analytics/analytics.hpp"
#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "check.hpp"
#include "pipeline.hpp"
#include "service/jobspec.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace cb = campaign_bench;
using fades::campaign::CampaignResult;
using fades::campaign::ExperimentOutcome;
using fades::campaign::Outcome;

namespace {

std::vector<double> oneTo(unsigned n) {
  std::vector<double> v;
  for (unsigned i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

cb::SpanRecord span(int id, int parent, double startS, double endS,
                    std::string name = "core.x") {
  cb::SpanRecord s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent;
  s.startNs = static_cast<std::int64_t>(startS * 1e9);
  s.endNs = static_cast<std::int64_t>(endS * 1e9);
  return s;
}

ExperimentOutcome outcome(std::uint64_t index, Outcome o, double seconds) {
  ExperimentOutcome x;
  x.index = index;
  x.outcome = o;
  x.modeledSeconds = seconds;
  x.hasRecord = true;
  x.record.targetName = "t" + std::to_string(index);
  x.record.injectCycle = 10 * index;
  x.record.durationCycles = 2.5;
  x.record.outcome = o;
  x.record.modeledSeconds = seconds;
  x.record.component = "alu";
  return x;
}

CampaignResult smallResult() {
  CampaignResult r;
  r.spec.experiments = 4;
  r.fold(outcome(0, Outcome::Silent, 0.25));
  r.fold(outcome(1, Outcome::Failure, 0.125));
  r.fold(outcome(2, Outcome::Latent, 0.1));
  r.fold(outcome(3, Outcome::Silent, 0.3));
  return r;
}

std::string readText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void writeText(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

}  // namespace

// --- tail percentile rule -------------------------------------------------

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  const auto t = cb::summarize(oneTo(100));
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.p50, 50);
  EXPECT_EQ(t.rank, 90u);  // p91 leaves only 9 samples beyond it
  EXPECT_EQ(t.value, 90);

  const auto big = cb::summarize(oneTo(1000));
  EXPECT_EQ(big.rank, 99u);
  EXPECT_EQ(big.value, 990);
  EXPECT_EQ(big.samples, 1000u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  auto v = oneTo(257);
  std::mt19937 rng(7);
  std::shuffle(v.begin(), v.end(), rng);
  const auto t = cb::summarize(v);
  EXPECT_EQ(t.rank, 96u);  // ceil(0.96 * 257) = 247 leaves 10 beyond
  EXPECT_EQ(t.value, 247);
  EXPECT_EQ(t.samples, 257u);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMedian) {
  const auto twenty = cb::summarize(oneTo(20));
  EXPECT_EQ(twenty.rank, 50u);  // exactly ten beyond the median
  EXPECT_EQ(twenty.value, 10);

  const auto few = cb::summarize(oneTo(19));
  EXPECT_EQ(few.rank, 0u);
  EXPECT_EQ(few.value, few.p50);
  EXPECT_EQ(few.samples, 19u);

  const auto none = cb::summarize({});
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.rank, 0u);
  EXPECT_EQ(none.value, 0);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_EQ(cb::median({3, 1, 2}), 2);
  EXPECT_EQ(cb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(cb::median({}), 0);
}

// --- self time ----------------------------------------------------------------

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  const std::vector<cb::SpanRecord> spans = {
      span(0, -1, 0, 10, "bench.campaign"),
      span(1, 0, 1, 4, "campaign.run"),
      span(2, 1, 2, 3, "core.run_experiment"),
  };
  const auto self = cb::selfSeconds(spans);
  EXPECT_NEAR(self[0], 7, 1e-9);
  EXPECT_NEAR(self[1], 2, 1e-9);
  EXPECT_NEAR(self[2], 1, 1e-9);

  const auto byLayer = cb::selfSecondsByLayer(spans);
  EXPECT_NEAR(byLayer.at("bench"), 7, 1e-9);
  EXPECT_NEAR(byLayer.at("campaign"), 2, 1e-9);
  EXPECT_NEAR(byLayer.at("core"), 1, 1e-9);
}

TEST(SelfTime, ParallelChildrenCountOnceAndAreClipped) {
  const std::vector<cb::SpanRecord> spans = {
      span(0, -1, 0, 10),
      span(1, 0, 2, 5),   // worker thread 1
      span(2, 0, 4, 8),   // worker thread 2, overlapping
      span(3, 0, 9, 12),  // ends after its parent
  };
  const auto self = cb::selfSeconds(spans);
  EXPECT_NEAR(self[0], 10 - 6 - 1, 1e-9);  // covered: [2,8] and [9,10]
  EXPECT_NEAR(self[1], 3, 1e-9);
  EXPECT_NEAR(self[3], 3, 1e-9);
  for (const double s : self) EXPECT_GE(s, 0);
}

TEST(SelfTime, BufferRecordsParentsAndRequests) {
  cb::SpanBuffer buffer;
  {
    const cb::ScopedSpan outer(&buffer, "bench.campaign");
    const cb::ScopedSpan inner(&buffer, "core.run_experiment", outer.id(), 42);
  }
  const cb::ScopedSpan off(nullptr, "ignored");
  EXPECT_EQ(off.id(), -1);
  const auto spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 42);
  EXPECT_LE(spans[0].startNs, spans[1].startNs);
  EXPECT_GE(spans[0].endNs, spans[1].endNs);
  EXPECT_EQ(cb::layerOf("core.run_experiment"), "core");
}

// --- correctness checks --------------------------------------------------------

TEST(Check, FoldedFailsOnQuarantineAndMissingExperiments) {
  cb::CheckReport ok;
  cb::checkFolded(smallResult(), 4, ok);
  EXPECT_TRUE(ok.ok());

  CampaignResult quarantined = smallResult();
  ExperimentOutcome q;
  q.index = 4;
  q.quarantined = true;
  q.failureMessage = "link down";
  quarantined.fold(q);
  cb::CheckReport bad;
  cb::checkFolded(quarantined, 5, bad);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.failed, 1u);

  cb::CheckReport missing;
  cb::checkFolded(smallResult(), 6, missing);
  EXPECT_EQ(missing.failed, 2u);
}

TEST(Check, ReloadPassesOnTheWrittenArtifactAndFailsWhenTampered) {
  const CampaignResult result = smallResult();
  const std::string path = "check_test_artifact.json";
  fades::campaign::toRunArtifact(result, "test", false).writeJson(path);

  const auto loaded = fades::analytics::loadRunArtifact(path);
  const auto report = fades::analytics::buildReport({loaded});
  cb::CheckReport clean;
  cb::checkReload(result, loaded, report.totals, clean);
  EXPECT_TRUE(clean.ok()) << (clean.problems.empty() ? "" : clean.problems[0]);

  const std::string originalText = readText(path);
  const cb::ArtifactSummary original = cb::summarizeArtifact(path);
  const cb::Pin exact{"test", original.fnv1a64.c_str(), 1, 1, 2,
                      result.modeledSeconds.sum()};
  cb::CheckReport pinOk;
  cb::checkPin(exact, original, result, pinOk);
  EXPECT_TRUE(pinOk.ok()) << (pinOk.problems.empty() ? "" : pinOk.problems[0]);
  const cb::Pin wrong{"test", "0000000000000000", 2, 1, 1, 1.0};
  cb::CheckReport pinBad;
  cb::checkPin(wrong, original, result, pinBad);
  EXPECT_EQ(pinBad.problems.size(), 3u);  // digest, totals, modeled sum

  // One record's outcome flipped on disk.
  std::string text = originalText;
  const std::string silent = "\"outcome\": \"silent\"";
  const auto at = text.find(silent);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, silent.size(), "\"outcome\": \"failure\"");
  writeText(path, text);
  const auto flipped = fades::analytics::loadRunArtifact(path);
  cb::CheckReport bad;
  cb::checkReload(result, flipped,
                  fades::analytics::buildReport({flipped}).totals, bad);
  EXPECT_EQ(bad.problems.size(), 2u);  // reloaded records and folded report
  EXPECT_EQ(bad.failed, 2u * result.total());
  cb::CheckReport flippedPin;
  cb::checkPin(exact, cb::summarizeArtifact(path), result, flippedPin);
  EXPECT_EQ(flippedPin.problems.size(), 1u);  // the digest

  // One record's modeled time changed; the totals still agree.
  text = originalText;
  const auto mt = text.find("0.125");
  ASSERT_NE(mt, std::string::npos);
  text.replace(mt, 5, "0.126");
  writeText(path, text);
  const auto retimed = fades::analytics::loadRunArtifact(path);
  cb::CheckReport modeled;
  cb::checkReload(result, retimed,
                  fades::analytics::buildReport({retimed}).totals, modeled);
  ASSERT_EQ(modeled.problems.size(), 1u);
  EXPECT_NE(modeled.problems[0].find("modeled seconds"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Check, ReplayMatchesFieldByFieldOrFails) {
  const ExperimentOutcome replayed = outcome(3, Outcome::Silent, 0.3);
  cb::CheckReport report;
  EXPECT_TRUE(cb::checkReplay(3, replayed, replayed.record, report));
  EXPECT_TRUE(report.ok());

  auto record = replayed.record;
  record.detectCycle = 17;
  EXPECT_FALSE(cb::checkReplay(3, replayed, record, report));
  record = replayed.record;
  record.modeledSeconds = std::nextafter(record.modeledSeconds, 1.0);
  EXPECT_FALSE(cb::checkReplay(3, replayed, record, report));
  EXPECT_EQ(report.failed, 2u);
}

TEST(Check, ReplayOfARealCampaignMatchesOnlyItsOwnIndex) {
  // The service's small demo design: a real FADES campaign in milliseconds.
  fades::service::JobSpec job;
  job.workload = "demo";
  job.keepRecords = true;
  job.spec.experiments = 12;
  job.spec.seed = 2006;
  const auto system = fades::service::buildSystem(job);
  fades::campaign::ParallelCampaignRunner runner(system->factory, {});
  const auto result = runner.run(job.spec);
  ASSERT_EQ(result.records.size(), 12u);

  const auto fresh = system->factory();
  const auto pool = fresh->enumeratePool(job.spec);
  cb::CheckReport report;
  for (const unsigned i : cb::sampleIndices(12, job.spec.seed, 5)) {
    const auto replayed = fresh->runExperimentAt(job.spec, pool, i, 0);
    EXPECT_TRUE(cb::checkReplay(i, replayed, result.records[i], report));
    const unsigned other = (i + 1) % 12;
    cb::CheckReport mismatch;
    EXPECT_FALSE(cb::checkReplay(i, replayed, result.records[other], mismatch));
    EXPECT_EQ(mismatch.failed, 1u);
  }
  EXPECT_TRUE(report.ok());
}

TEST(SampleIndices, DistinctDeterministicAndBounded) {
  const auto a = cb::sampleIndices(200, 2006, 8);
  EXPECT_EQ(a, cb::sampleIndices(200, 2006, 8));
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[1], 199u);
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const unsigned i : a) EXPECT_LT(i, 200u);
  EXPECT_EQ(cb::sampleIndices(3, 1, 8).size(), 3u);
  EXPECT_TRUE(cb::sampleIndices(0, 1, 8).empty());
}

TEST(Workloads, NamesResolveToValidJobs) {
  EXPECT_EQ(cb::findWorkload("no-such-workload"), nullptr);
  for (const auto& w : cb::workloads()) {
    ASSERT_EQ(cb::findWorkload(w.name), &w);
    const auto job = cb::jobFor(w, 2006);
    EXPECT_EQ(job.spec.seed, 2006u);
    EXPECT_EQ(job.spec.experiments, w.experiments);
    EXPECT_TRUE(job.keepRecords);
  }
}
