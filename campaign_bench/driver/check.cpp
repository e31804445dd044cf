#include "check.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "campaign/artifact.hpp"
#include "common/error.hpp"
#include "service/wire.hpp"

namespace campaign_bench {

using fades::campaign::CampaignResult;
using fades::campaign::Outcome;

namespace {

std::string describeTotals(std::uint64_t f, std::uint64_t l, std::uint64_t s) {
  std::ostringstream os;
  os << f << " failures / " << l << " latent / " << s << " silent";
  return os.str();
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void CheckReport::fail(std::uint64_t experiments, std::string problem) {
  failed += experiments;
  problems.push_back(std::move(problem));
}

ArtifactSummary summarizeArtifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  fades::common::require(static_cast<bool>(in),
                         fades::common::ErrorKind::ConfigError,
                         "cannot read artifact '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string bytes = text.str();
  return {fades::service::fnv1a64Hex(bytes), bytes.size()};
}

void checkFolded(const CampaignResult& result, unsigned attempted,
                 CheckReport& report) {
  if (!result.quarantined.empty()) {
    report.fail(result.quarantined.size(),
                std::to_string(result.quarantined.size()) +
                    " experiment(s) quarantined");
  }
  const std::uint64_t accounted = result.total() + result.quarantined.size();
  if (accounted != attempted) {
    const std::uint64_t missing =
        accounted < attempted ? attempted - accounted : accounted - attempted;
    report.fail(missing, std::to_string(attempted) + " experiments attempted, " +
                             std::to_string(result.total()) + " folded");
  }
  if (result.records.size() != result.total()) {
    report.fail(attempted, std::to_string(result.records.size()) +
                               " records kept for " +
                               std::to_string(result.total()) + " experiments");
  }
}

void checkReload(const CampaignResult& result,
                 const fades::analytics::CampaignInput& reloaded,
                 const fades::analytics::OutcomeSlice& reportTotals,
                 CheckReport& report) {
  const std::uint64_t n = result.total();
  std::uint64_t f = 0;
  std::uint64_t l = 0;
  std::uint64_t s = 0;
  double modeled = 0;
  for (const auto& r : reloaded.records) {
    switch (r.outcome) {
      case Outcome::Failure: ++f; break;
      case Outcome::Latent: ++l; break;
      case Outcome::Silent: ++s; break;
    }
    modeled += r.modeledSeconds;
  }
  const std::string want =
      describeTotals(result.failures, result.latents, result.silents);
  if (f != result.failures || l != result.latents || s != result.silents) {
    report.fail(n, "reloaded artifact has " + describeTotals(f, l, s) +
                       ", campaign folded " + want);
  }
  if (reportTotals.experiments != n || reportTotals.failures != result.failures ||
      reportTotals.latents != result.latents ||
      reportTotals.silents != result.silents) {
    report.fail(n, "folded report has " +
                       describeTotals(reportTotals.failures,
                                      reportTotals.latents,
                                      reportTotals.silents) +
                       ", campaign folded " + want);
  }
  if (!sameBits(modeled, result.modeledSeconds.sum())) {
    std::ostringstream os;
    os.precision(17);
    os << "reloaded modeled seconds sum " << modeled << " != campaign sum "
       << result.modeledSeconds.sum();
    report.fail(n, os.str());
  }
}

bool checkReplay(std::uint64_t index,
                 const fades::campaign::ExperimentOutcome& replayed,
                 const fades::campaign::ExperimentRecord& folded,
                 CheckReport& report) {
  std::string problem;
  if (replayed.quarantined) {
    problem = "quarantined on replay: " + replayed.failureMessage;
  } else if (!replayed.hasRecord) {
    problem = "replay kept no record";
  } else if (replayed.outcome != replayed.record.outcome ||
             !sameBits(replayed.modeledSeconds,
                       replayed.record.modeledSeconds)) {
    problem = "replayed outcome disagrees with its own record";
  } else {
    const std::string got = fades::campaign::toJson(replayed.record).dump();
    const std::string want = fades::campaign::toJson(folded).dump();
    if (got != want || !sameBits(replayed.record.modeledSeconds,
                                 folded.modeledSeconds) ||
        !sameBits(replayed.record.durationCycles, folded.durationCycles)) {
      problem = "replayed record " + got + " != folded record " + want;
    }
  }
  if (problem.empty()) return true;
  report.fail(1, "experiment " + std::to_string(index) + ": " + problem);
  return false;
}

void checkPin(const Pin& pin, const ArtifactSummary& artifact,
              const CampaignResult& result, CheckReport& report) {
  const std::uint64_t n = result.total();
  const std::string where = std::string("pin for ") + pin.workload + ": ";
  if (artifact.fnv1a64 != pin.fnv1a64) {
    report.fail(n, where + "artifact digest " + artifact.fnv1a64 +
                       " != pinned " + pin.fnv1a64);
  }
  if (result.failures != pin.failures || result.latents != pin.latents ||
      result.silents != pin.silents) {
    report.fail(n, where + describeTotals(result.failures, result.latents,
                                          result.silents) +
                       " != pinned " +
                       describeTotals(pin.failures, pin.latents, pin.silents));
  }
  if (!sameBits(result.modeledSeconds.sum(), pin.modeledSecondsSum)) {
    std::ostringstream os;
    os.precision(17);
    os << where << "modeled seconds sum " << result.modeledSeconds.sum()
       << " != pinned " << pin.modeledSecondsSum;
    report.fail(n, os.str());
  }
}

}  // namespace campaign_bench
