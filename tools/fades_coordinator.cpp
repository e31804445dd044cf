// Campaign coordinator daemon.
//
// Listens on loopback for fades.wire/1 workers and clients, leases blocks
// of experiments, folds streamed outcomes into per-campaign journals and
// writes the merged fades.run/1 artifact into a content-addressed store.
//
// Usage:
//   fades_coordinator [--port P] [--store DIR] [--block-size N]
//                     [--lease-ms N] [--audit-every N] [--resume] [--once]
//                     [--fsync] [--progress-interval N] [--port-file FILE]
//     --port P     listen port (default 0 = ephemeral; see --port-file)
//     --port-file  write the resolved port to FILE (for scripts using
//                  --port 0)
//     --store DIR  artifact store directory (default fades-store)
//     --block-size experiments per lease (default 16)
//     --lease-ms   lease deadline; a worker must complete or heartbeat
//                  within this (default 10000)
//     --audit-every N  every Nth block needs two agreeing workers even
//                  without a dispute (default 0 = only on dispute)
//     --resume     re-register every campaign found in the store and resume
//                  its journal (the crash-recovery path)
//     --once       exit once every submitted campaign is complete, telling
//                  idle workers to shut down
//     --fsync      fsync journals after every record
//     --progress-interval N  campaign progress heartbeat every N
//                  experiments (default 25)
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "obs/artifact.hpp"
#include "service/coordinator.hpp"

using namespace fades;

namespace {

std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

[[noreturn]] void usageError(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: fades_coordinator [--port P] [--store DIR]\n"
               "                         [--block-size N] [--lease-ms N]\n"
               "                         [--audit-every N] [--resume]\n"
               "                         [--once] [--fsync]\n"
               "                         [--progress-interval N]\n"
               "                         [--port-file FILE]\n",
               message);
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
    usageError((std::string(what) + " expects an integer in [" +
                std::to_string(min) + ", " + std::to_string(max) +
                "], got '" + s + "'")
                   .c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  service::CoordinatorOptions opt;
  opt.progressInterval = 25;
  bool resume = false;
  bool once = false;
  std::string portFile;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usageError((a + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--port") {
      opt.port = static_cast<std::uint16_t>(
          parseUnsigned(value(), "--port", 0, UINT16_MAX));
    } else if (a == "--port-file") {
      portFile = value();
    } else if (a == "--store") {
      opt.storeDir = value();
    } else if (a == "--block-size") {
      opt.blockSize = static_cast<unsigned>(
          parseUnsigned(value(), "--block-size", 1, UINT_MAX));
    } else if (a == "--lease-ms") {
      opt.leaseMs =
          static_cast<int>(parseUnsigned(value(), "--lease-ms", 1, INT_MAX));
    } else if (a == "--audit-every") {
      opt.auditEvery = static_cast<unsigned>(
          parseUnsigned(value(), "--audit-every", 0, UINT_MAX));
    } else if (a == "--progress-interval") {
      opt.progressInterval =
          parseUnsigned(value(), "--progress-interval", 0, UINT_MAX);
    } else if (a == "--resume") {
      resume = true;
    } else if (a == "--once") {
      once = true;
    } else if (a == "--fsync") {
      opt.fsync = campaign::FsyncPolicy::EachRecord;
    } else {
      usageError(("unknown flag '" + a + "'").c_str());
    }
  }
  opt.shutdownWhenDone = once;

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  try {
    service::Coordinator coordinator(opt);
    coordinator.start();
    std::printf("coordinator listening on 127.0.0.1:%u (store %s)\n",
                coordinator.port(), opt.storeDir.c_str());
    std::fflush(stdout);
    if (!portFile.empty()) {
      obs::writeFile(portFile, std::to_string(coordinator.port()) + "\n");
    }
    if (resume) {
      const auto resumed = coordinator.resumeFromStore();
      std::printf("resumed %zu campaign(s) from the store\n", resumed.size());
      std::fflush(stdout);
    }
    // --once waits for completion; otherwise run until a signal arrives.
    bool drained = false;
    while (gStop == 0) {
      if (coordinator.waitForAllComplete(/*timeoutMs=*/200) && once) {
        drained = true;
        break;
      }
    }
    if (drained) {
      // Linger one lease-request cycle so idle workers see the shutdown
      // answer instead of a closed socket.
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    coordinator.stop();
    return 0;
  } catch (const common::FadesError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
