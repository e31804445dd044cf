// Correctness checks the campaign benchmark applies to the program's
// outputs. Each check adds the number of experiments it invalidates to
// `failed` and a line describing the problem, so a run reports failed
// experiments against attempted ones instead of stopping at the first
// problem.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/analytics.hpp"
#include "campaign/types.hpp"

namespace campaign_bench {

struct CheckReport {
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t experiments, std::string problem);
  bool ok() const { return problems.empty(); }
};

/// The fades.run/1 artifact as written to disk.
struct ArtifactSummary {
  std::string fnv1a64;  // FNV-1a 64 of the file's bytes, 16 hex digits
  std::uint64_t bytes = 0;
};

ArtifactSummary summarizeArtifact(const std::string& path);

/// Every attempted experiment was folded and none was quarantined.
void checkFolded(const fades::campaign::CampaignResult& result,
                 unsigned attempted, CheckReport& report);

/// The artifact reloaded through analytics::loadRunArtifact, and the report
/// folded from it, give the campaign's outcome totals, and the reloaded
/// records give its modeled-seconds sum bit for bit.
void checkReload(const fades::campaign::CampaignResult& result,
                 const fades::analytics::CampaignInput& reloaded,
                 const fades::analytics::OutcomeSlice& reportTotals,
                 CheckReport& report);

/// An experiment re-run in isolation matches the folded record field by
/// field. Returns true on a match.
bool checkReplay(std::uint64_t index,
                 const fades::campaign::ExperimentOutcome& replayed,
                 const fades::campaign::ExperimentRecord& folded,
                 CheckReport& report);

/// Reference figures of a workload's artifact at the default seed.
struct Pin {
  const char* workload;
  const char* fnv1a64;
  std::uint64_t failures;
  std::uint64_t latents;
  std::uint64_t silents;
  double modeledSecondsSum;
};

/// The artifact and result match the workload's pin.
void checkPin(const Pin& pin, const ArtifactSummary& artifact,
              const fades::campaign::CampaignResult& result,
              CheckReport& report);

}  // namespace campaign_bench
