#include "campaign/report.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/csv.hpp"

namespace fades::campaign {

using common::ErrorKind;
using common::fixed;
using common::require;
using obs::csvQuote;

std::string toMarkdown(const std::string& title,
                       const std::vector<ReportEntry>& entries) {
  std::string out = "## " + title + "\n\n";
  out +=
      "| campaign | faults | failure | latent | silent | failure % | "
      "latent % | silent % | mean s/fault |\n";
  out += "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& e : entries) {
    const auto& r = e.result;
    out += "| " + e.label + " | " + std::to_string(r.total()) + " | " +
           std::to_string(r.failures) + " | " + std::to_string(r.latents) +
           " | " + std::to_string(r.silents) + " | " +
           fixed(r.failurePct(), 2) + " | " + fixed(r.latentPct(), 2) +
           " | " + fixed(r.silentPct(), 2) + " | " +
           fixed(r.modeledSeconds.mean(), 3) + " |\n";
  }
  return out;
}

std::string toCsv(const std::vector<ReportEntry>& entries) {
  std::string out =
      "campaign,model,targets,band,faults,failures,latents,silents,"
      "failure_pct,latent_pct,silent_pct,mean_seconds\n";
  for (const auto& e : entries) {
    const auto& r = e.result;
    out += csvQuote(e.label) + "," + toString(r.spec.model) + "," +
           csvQuote(toString(r.spec.targets)) + "," +
           csvQuote(r.spec.band.label) + "," + std::to_string(r.total()) +
           "," + std::to_string(r.failures) + "," +
           std::to_string(r.latents) + "," + std::to_string(r.silents) +
           "," + fixed(r.failurePct(), 4) + "," + fixed(r.latentPct(), 4) +
           "," + fixed(r.silentPct(), 4) + "," +
           fixed(r.modeledSeconds.mean(), 6) + "\n";
  }
  return out;
}

std::string recordsToCsv(const CampaignResult& result) {
  require(!result.records.empty(), ErrorKind::InvalidArgument,
          "campaign was run without keepRecords");
  std::string out =
      "target,component,inject_cycle,duration_cycles,outcome,seconds,pc,"
      "opcode,detect_cycle\n";
  for (const auto& rec : result.records) {
    out += csvQuote(rec.targetName) + "," + csvQuote(rec.component) + "," +
           std::to_string(rec.injectCycle) + "," +
           fixed(rec.durationCycles, 3) + "," + toString(rec.outcome) + "," +
           fixed(rec.modeledSeconds, 6) + "," + std::to_string(rec.pc) + "," +
           std::to_string(rec.opcode) + "," +
           std::to_string(rec.detectCycle) + "\n";
  }
  return out;
}

std::string renderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::string out = obs::csvLine(header);
  for (const auto& row : rows) out += obs::csvLine(row);
  return out;
}

std::string renderMarkdownTable(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  auto renderRow = [](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (const auto& c : cells) line += " " + c + " |";
    return line + "\n";
  };
  std::string out = renderRow(header);
  out += "|";
  for (std::size_t c = 0; c < header.size(); ++c) out += "---|";
  out += "\n";
  for (const auto& row : rows) out += renderRow(row);
  return out;
}

}  // namespace fades::campaign
