// Campaign report rendering - the output side of the paper's results
// analysis module (Section 5): turn one or more CampaignResults into
// human-readable markdown or machine-readable CSV for later analysis.
#pragma once

#include <string>
#include <vector>

#include "campaign/types.hpp"

namespace fades::campaign {

/// One labelled result row in a report.
struct ReportEntry {
  std::string label;
  CampaignResult result;
};

/// Markdown table: label, experiments, failure/latent/silent counts and
/// percentages, mean modeled seconds.
std::string toMarkdown(const std::string& title,
                       const std::vector<ReportEntry>& entries);

/// CSV with a header row; one line per entry. Fields are quoted only when
/// needed (labels with commas).
std::string toCsv(const std::vector<ReportEntry>& entries);

/// Per-experiment CSV (requires results collected with keepRecords).
std::string recordsToCsv(const CampaignResult& result);

/// CSV from pre-formatted cells - the CSV counterpart of
/// common::renderTable. Every field is quoted through obs::csvQuote, the
/// one CSV-quoting implementation in the tree.
std::string renderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows);

/// GitHub-style markdown pipe table from pre-formatted cells.
std::string renderMarkdownTable(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace fades::campaign
