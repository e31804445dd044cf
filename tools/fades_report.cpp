// fades_report: fold fades.run/1 artifacts and fades.journal/1 checkpoint
// journals into a vulnerability report - per-component rankings, per-PC and
// per-instruction attribution, derating fractions and fault-latency
// histograms.
//
//   fades_report [--json PATH] [--md PATH] [--csv PATH] INPUT...
//
// Each INPUT is an artifact file, a journal file, or a directory scanned
// (sorted) for both. With no output flags the markdown report goes to
// stdout. The JSON output is the versioned fades.report/1 document and is
// byte-identical for byte-identical input records - including artifacts
// produced at different --jobs counts or through checkpoint/resume.
//
// Exit code: 0 = report written, 1 = processing error, 2 = usage.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analytics/analytics.hpp"
#include "common/file.hpp"

namespace {

constexpr const char* kUsage =
    "usage: fades_report [--json PATH] [--md PATH] [--csv PATH] INPUT...\n"
    "  INPUT: fades.run/1 artifact (.json/.jsonl), fades.journal/1 journal,\n"
    "         or a directory containing them\n";

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath, mdPath, csvPath;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) {
      if (i + 1 >= argc) usageError(std::string(flag) + " expects a path");
      return std::string(argv[++i]);
    };
    if (arg == "--json") {
      jsonPath = value("--json");
    } else if (arg == "--md") {
      mdPath = value("--md");
    } else if (arg == "--csv") {
      csvPath = value("--csv");
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usageError("unknown flag '" + arg + "'");
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) usageError("no inputs given");

  try {
    const auto loaded = fades::analytics::loadInputs(inputs);
    const auto report = fades::analytics::buildReport(loaded);
    if (!jsonPath.empty()) {
      fades::common::writeFile(
          jsonPath, fades::analytics::toJson(report).dump(2) + "\n");
    }
    if (!mdPath.empty()) {
      fades::common::writeFile(mdPath, fades::analytics::toMarkdown(report));
    }
    if (!csvPath.empty()) {
      fades::common::writeFile(csvPath, fades::analytics::toCsv(report));
    }
    if (jsonPath.empty() && mdPath.empty() && csvPath.empty()) {
      std::fputs(fades::analytics::toMarkdown(report).c_str(), stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
