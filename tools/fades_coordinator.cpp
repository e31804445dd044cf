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
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/parse.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  service::CoordinatorOptions opt;
  opt.progressInterval = 25;
  bool resume = false;
  bool once = false;
  std::string portFile;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) usageError((a + " needs a value").c_str());
        return argv[++i];
      };
      if (a == "--port") {
        opt.port = common::parseUnsigned<std::uint16_t>(value(), a);
      } else if (a == "--port-file") {
        portFile = value();
      } else if (a == "--store") {
        opt.storeDir = value();
      } else if (a == "--block-size") {
        opt.blockSize = common::parseUnsigned<unsigned>(value(), a, 1);
      } else if (a == "--lease-ms") {
        opt.leaseMs = common::parseUnsigned<int>(value(), a, 1);
      } else if (a == "--audit-every") {
        opt.auditEvery = common::parseUnsigned<unsigned>(value(), a);
      } else if (a == "--progress-interval") {
        opt.progressInterval = common::parseUnsigned<unsigned>(value(), a);
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
  } catch (const common::FadesError& e) {
    usageError(e.what());
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
      common::writeFile(portFile, std::to_string(coordinator.port()) + "\n");
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
