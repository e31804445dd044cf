// Campaign worker daemon.
//
// Connects to a fades_coordinator, leases blocks of experiments, runs them
// through the standard retry/recover/quarantine discipline and streams the
// outcomes back. Exits 0 when the coordinator says shutdown, 1 when the
// reconnect budget runs out.
//
// Usage:
//   fades_worker --port P [--host H] [--name NAME] [--attempts N]
//                [--heartbeat-ms N] [--max-reconnects N] [--tamper]
//     --name     stable worker identity (default worker-<pid>); strikes,
//                backoff and bans attach to it across reconnects
//     --attempts retry budget per experiment before quarantining it
//     --max-reconnects give up after N consecutive failed connects
//                (default 0 = keep trying until killed)
//     --tamper   lie about every outcome (byzantine-worker test mode: the
//                experiments run honestly, the streamed results are
//                falsified)
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/types.hpp"
#include "common/error.hpp"
#include "service/worker.hpp"

using namespace fades;

namespace {

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: fades_worker --port P [--host H] [--name NAME]\n"
               "                    [--attempts N] [--heartbeat-ms N]\n"
               "                    [--max-reconnects N] [--tamper]\n",
               message.c_str());
  std::exit(2);
}

/// Strict integer parse: digits only, within [min, max]. strtoul alone
/// would accept "-1" as 4294967295 and let the caller's cast truncate or
/// wrap an out-of-range value.
unsigned long parseUnsigned(const char* text, const char* what,
                            unsigned long min, unsigned long max) {
  const std::string s = text;
  const bool digits =
      !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  const unsigned long value = digits ? std::strtoul(text, nullptr, 10) : 0;
  if (!digits || errno != 0 || value < min || value > max) {
    usageError(std::string(what) + " expects an integer in [" +
               std::to_string(min) + ", " + std::to_string(max) +
               "], got '" + s + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  service::WorkerOptions opt;
  bool tamper = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usageError(a + " needs a value");
      return argv[++i];
    };
    if (a == "--port") {
      opt.port = static_cast<std::uint16_t>(
          parseUnsigned(value(), "--port", 1, UINT16_MAX));
    } else if (a == "--host") {
      opt.host = value();
    } else if (a == "--name") {
      opt.name = value();
    } else if (a == "--attempts") {
      opt.experimentAttempts = static_cast<unsigned>(
          parseUnsigned(value(), "--attempts", 1, UINT_MAX));
    } else if (a == "--heartbeat-ms") {
      opt.heartbeatMs = static_cast<int>(
          parseUnsigned(value(), "--heartbeat-ms", 1, INT_MAX));
    } else if (a == "--max-reconnects") {
      opt.maxReconnects = static_cast<unsigned>(
          parseUnsigned(value(), "--max-reconnects", 0, UINT_MAX));
    } else if (a == "--tamper") {
      tamper = true;
    } else {
      usageError("unknown flag '" + a + "'");
    }
  }
  if (opt.port == 0) usageError("--port is required");
  if (tamper) {
    // The canonical lie: report every failure as silent (and vice versa).
    // Honest workers reproduce each other's digests bit-exactly, so any
    // deterministic falsification is detected the same way.
    opt.tamper = [](campaign::ExperimentOutcome& outcome) {
      if (outcome.quarantined) return;
      outcome.outcome = outcome.outcome == campaign::Outcome::Silent
                            ? campaign::Outcome::Failure
                            : campaign::Outcome::Silent;
      if (outcome.hasRecord) outcome.record.outcome = outcome.outcome;
    };
  }

  try {
    service::WorkerDaemon worker(std::move(opt));
    return worker.run();
  } catch (const common::FadesError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
