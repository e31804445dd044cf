// Campaign benchmark driver: runs one workload's campaign from netlist to
// folded report, repeatedly, for a given number of seconds, checks the
// program's outputs and prints one JSON result line. See README.md.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Exit codes: 0 success, 1 a correctness check failed or the program threw,
// 2 a malformed command line.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "obs/json.hpp"
#include "pins.hpp"
#include "pipeline.hpp"
#include "stats.hpp"

namespace cb = campaign_bench;
using fades::obs::Json;

namespace {

constexpr const char* kUsage =
    "usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                      [--work-dir DIR] [--commit SHA]\n"
    "                      [--source-digest HEX]\n";

/// Campaigns per untraced run, at least, so every median has three samples.
constexpr unsigned kMinCampaigns = 3;
/// Traced runs alternate untraced and traced campaigns; at least this many
/// of each.
constexpr unsigned kMinTracedPairs = 2;
/// Experiments re-run in isolation by the replay check.
constexpr unsigned kReplaySamples = 8;

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Strict unsigned parse: digits only, no overflow.
bool parseU64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) return false;
  out = v;
  return true;
}

struct Args {
  const cb::Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workDir = ".bench_build/work";
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usageError(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = cb::findWorkload(value);
      if (a.workload == nullptr) {
        std::string known;
        for (const auto& w : cb::workloads()) known += " " + w.name;
        usageError("unknown workload '" + value + "' (known:" + known + ")");
      }
      haveWorkload = true;
    } else if (flag == "--seed") {
      if (!parseU64(value, a.seed)) {
        usageError("--seed expects an unsigned 64-bit integer, got '" +
                   value + "'");
      }
      haveSeed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parseU64(value, s) || s == 0 || s > 3600) {
        usageError("--seconds expects an integer in [1, 3600], got '" + value +
                   "'");
      }
      a.seconds = static_cast<double>(s);
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usageError("--trace expects 0 or 1, got '" + value + "'");
      }
      a.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--work-dir") {
      a.workDir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-digest") {
      a.sourceDigest = value;
    } else {
      usageError("unknown flag '" + flag + "'");
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
    usageError("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

bool optimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

Json contextJson(const Args& a) {
  Json c = Json::object();
  c.set("workload", Json(a.workload->name));
  c.set("seed", Json(static_cast<unsigned long long>(a.seed)));
  c.set("seconds", Json(a.seconds));
  c.set("trace", Json(a.trace));
  c.set("nproc", Json(std::thread::hardware_concurrency()));
  c.set("build_type", Json(std::string(BENCH_BUILD_TYPE)));
  c.set("optimized", Json(optimizedBuild()));
  c.set("compiler", Json(std::string(__VERSION__)));
  c.set("commit", Json(a.commit));
  c.set("source_digest", Json(a.sourceDigest));
  return c;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Ordered metric map: name -> (value, unit).
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    Json m = Json::object();
    m.set("value", Json(value));
    m.set("unit", Json(unit));
    json_.set(name, std::move(m));
    table_.push_back({name, value, unit});
  }
  void addTail(const std::string& prefix, const cb::TailSummary& t) {
    add(prefix + ".p50", t.p50, "ms");
    add(prefix + ".pNN", t.value, "ms");
    add(prefix + ".pNN_rank", t.rank, "%");
    add(prefix + ".n", static_cast<double>(t.samples), "count");
  }
  const Json& json() const { return json_; }
  void printTable(std::FILE* out) const {
    for (const auto& row : table_) {
      std::fprintf(out, "  %-40s %16.6g %s\n", row.name.c_str(), row.value,
                   row.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  Json json_ = Json::object();
  std::vector<Row> table_;
};

/// Per-campaign figures the traced run reports as medians.
struct TracedCampaign {
  cb::CampaignTimes times;
  cb::LayerProbe probe;
  std::map<std::string, double> selfByLayer;
  double spanCoverage = 0;
  double busyFrac = 0;
};

/// Self time per layer of the spans recorded since `firstSpan`, and the share
/// of the campaign root span its direct children cover.
void summarizeSpans(const std::vector<cb::SpanRecord>& all, int firstSpan,
                    int rootSpan, TracedCampaign& out) {
  std::vector<cb::SpanRecord> mine(all.begin() + firstSpan, all.end());
  out.selfByLayer = cb::selfSecondsByLayer(mine);
  const std::vector<double> self = cb::selfSeconds(mine);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].id == rootSpan) {
      out.spanCoverage = 1.0 - self[i] / mine[i].seconds();
    }
  }
}

/// What the run's first campaign produced; later campaigns must match it.
struct Reference {
  bool set = false;
  cb::ArtifactSummary artifact;
  std::uint64_t journalBytes = 0;
  fades::campaign::CampaignResult result;  // records dropped
  fades::synth::ImplementationStats synth;
};

bool sameSynthesis(const fades::synth::ImplementationStats& a,
                   const fades::synth::ImplementationStats& b) {
  return a.luts == b.luts && a.flops == b.flops && a.memBlocks == b.memBlocks &&
         a.routedNets == b.routedNets && a.wireSegments == b.wireSegments &&
         a.configBits == b.configBits && a.routeIterations == b.routeIterations;
}

/// Campaigns (untraced) or campaign pairs (traced) a run makes: as many as
/// fill --seconds on the reference machine. The count depends only on the
/// workload and --seconds, so every run does the same work and its peak
/// memory does not depend on how fast the host happened to be.
unsigned roundsFor(const cb::Workload& w, const Args& a) {
  const double perRound =
      a.trace ? 2 * w.nominalCampaignSeconds : w.nominalCampaignSeconds;
  const auto rounds = static_cast<unsigned>(a.seconds / perRound + 0.5);
  return std::max(rounds, a.trace ? kMinTracedPairs : kMinCampaigns);
}

std::vector<double> column(const std::vector<TracedCampaign>& runs,
                           const std::function<double(const TracedCampaign&)>& f) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(f(r));
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const cb::Workload& workload = *args.workload;
  if (!optimizedBuild()) {
    std::fprintf(stderr,
                 "warning: campaign_bench was built without optimisation; "
                 "its timings do not represent the program\n");
  }
  std::printf("context %s\n", contextJson(args).dump().c_str());
  std::fflush(stdout);

  try {
    std::filesystem::create_directories(args.workDir);
    const fades::service::JobSpec job = cb::jobFor(workload, args.seed);
    const unsigned n = workload.experiments;
    const bool fades = workload.tool == "fades";

    cb::CheckReport check;
    std::uint64_t attempted = 0;
    std::vector<cb::CampaignTimes> untraced;
    std::vector<TracedCampaign> traced;
    cb::Tracer tracer;
    Reference ref;

    // Every campaign of the run is checked the same way, traced or not. The
    // first one is also replayed and compared with the pin; later ones must
    // reproduce its artifact byte for byte.
    auto finish = [&](const cb::CampaignRun& run) {
      std::fprintf(stderr,
                   "campaign %llu: setup %.3f s, run %.3f s, write %.3f s, "
                   "fold %.3f s, total %.3f s\n",
                   static_cast<unsigned long long>(attempted / n + 1),
                   run.times.setup, run.times.run, run.times.write,
                   run.times.fold, run.times.campaign);
      attempted += n;
      cb::checkFolded(run.result, n, check);
      cb::checkReload(run.result, run.reloaded, run.reportTotals, check);
      const auto* stats = run.system->impl ? &run.system->impl->stats : nullptr;
      if (!ref.set) {
        cb::replaySample(run, cb::sampleIndices(n, args.seed, kReplaySamples),
                         check);
        if (args.seed == cb::kPinnedSeed) {
          const cb::Pin* pin = cb::findPin(workload.name);
          if (pin == nullptr) {
            check.fail(n, "no pin recorded for workload " + workload.name);
          } else {
            cb::checkPin(*pin, run.artifact, run.result, check);
          }
        }
        ref.set = true;
        ref.artifact = run.artifact;
        ref.journalBytes = run.journalBytes;
        ref.result = run.result;
        ref.result.records.clear();
        if (stats != nullptr) ref.synth = *stats;
        return;
      }
      if (run.artifact.fnv1a64 != ref.artifact.fnv1a64) {
        check.fail(n, "artifact " + run.artifact.fnv1a64 +
                          " differs from the run's first campaign (" +
                          ref.artifact.fnv1a64 + ")");
      }
      if (stats != nullptr && !sameSynthesis(*stats, ref.synth)) {
        check.fail(n, "synthesis statistics differ between campaigns");
      }
    };

    const unsigned rounds = roundsFor(workload, args);
    for (unsigned r = 0; r < rounds; ++r) {
      {
        const cb::CampaignRun run =
            cb::runCampaign(workload, job, args.workDir, nullptr);
        untraced.push_back(run.times);
        finish(run);
      }
      if (!args.trace) continue;
      const int firstSpan = static_cast<int>(tracer.spans.snapshot().size());
      const double busyBefore = tracer.calls.busySeconds;
      const cb::CampaignRun run =
          cb::runCampaign(workload, job, args.workDir, &tracer);
      TracedCampaign t;
      t.times = run.times;
      t.busyFrac = (tracer.calls.busySeconds - busyBefore) /
                   (workload.jobs * run.times.run);
      t.probe = cb::probeLayers(*run.system, tracer);
      if (run.system->impl &&
          !sameSynthesis(t.probe.implementStats, run.system->impl->stats)) {
        check.fail(n, "a second synth::implement gave different statistics");
      }
      summarizeSpans(tracer.spans.snapshot(), firstSpan, run.rootSpan, t);
      traced.push_back(std::move(t));
      finish(run);
    }

    Metrics metrics;
    if (!args.trace) {
      auto col = [&](double cb::CampaignTimes::*field) {
        std::vector<double> v;
        for (const auto& t : untraced) v.push_back(t.*field);
        return cb::median(v);
      };
      std::vector<double> rate;
      for (const auto& t : untraced) rate.push_back(n / t.run);
      metrics.add("setup_s", col(&cb::CampaignTimes::setup), "s");
      metrics.add("campaign_s", col(&cb::CampaignTimes::campaign), "s");
      metrics.add("experiments_per_s", cb::median(rate), "1/s");
      metrics.add("peak_rss_mb", peakRssMb(), "MB");
      metrics.add("modeled_s_per_fault", ref.result.modeledSeconds.mean(),
                  "sim_s");
    } else {
      auto med = [&](const std::function<double(const TracedCampaign&)>& f) {
        return cb::median(column(traced, f));
      };
      const auto& stats = ref.synth;
      const auto& cost = ref.result.cost;
      const double faults = static_cast<double>(n);
      std::vector<double> untracedCampaign;
      for (const auto& t : untraced) untracedCampaign.push_back(t.campaign);
      const double tracedCampaign =
          med([](const TracedCampaign& t) { return t.times.campaign; });
      std::vector<double> replicaBuilds;
      for (const auto& t : traced) {
        replicaBuilds.insert(replicaBuilds.end(), t.times.replicaBuild.begin(),
                             t.times.replicaBuild.end());
      }
      const double replicaBuild = cb::median(replicaBuilds);
      metrics.add("mc8051.build_core_s",
                  med([](const TracedCampaign& t) {
                    return t.probe.buildCoreS;
                  }),
                  "s");
      metrics.add("synth.implement_s",
                  med([](const TracedCampaign& t) {
                    return t.probe.implementS;
                  }),
                  "s");
      metrics.add("synth.techmap_s",
                  med([](const TracedCampaign& t) { return t.probe.techmapS; }),
                  "s");
      metrics.add("synth.route_iterations", stats.routeIterations, "count");
      metrics.add("synth.config_bits", static_cast<double>(stats.configBits),
                  "count");
      metrics.add("core.replica_build_s", fades ? replicaBuild : 0.0, "s");
      metrics.addTail("core.experiment_ms",
                      cb::summarize(tracer.calls.experimentMs));
      metrics.add("core.experiment_ms_silent.p50",
                  cb::summarize(tracer.calls.silentMs).p50, "ms");
      metrics.add("core.experiment_ms_nonsilent.p50",
                  cb::summarize(tracer.calls.nonsilentMs).p50, "ms");
      metrics.add("fpga.step_us",
                  med([](const TracedCampaign& t) { return t.probe.stepUs; }),
                  "us");
      metrics.add("bits.bytes_to_device_per_fault",
                  static_cast<double>(cost.bytesToDevice) / faults, "B");
      metrics.add("bits.bytes_from_device_per_fault",
                  static_cast<double>(cost.bytesFromDevice) / faults, "B");
      metrics.add("bits.sessions_per_fault",
                  static_cast<double>(cost.sessions) / faults, "count");
      metrics.add("bits.config_s_per_fault",
                  fades ? cost.configSeconds / faults : 0.0, "sim_s");
      metrics.add("vfit.replica_build_s", fades ? 0.0 : replicaBuild, "s");
      metrics.addTail("sim.wave_ms", cb::summarize(tracer.calls.waveMs));
      const auto& fill = tracer.calls.waveFill;
      metrics.add("sim.wave_fill",
                  fill.empty() ? 0.0
                               : std::accumulate(fill.begin(), fill.end(), 0.0) /
                                     static_cast<double>(fill.size()),
                  "ratio");
      metrics.add("campaign.run_s",
                  med([](const TracedCampaign& t) { return t.times.run; }),
                  "s");
      metrics.add("campaign.engine_busy_frac",
                  med([](const TracedCampaign& t) { return t.busyFrac; }),
                  "ratio");
      metrics.add("campaign.attempts_per_experiment",
                  static_cast<double>(tracer.calls.experimentsRun) /
                      (faults * traced.size()),
                  "ratio");
      metrics.add("campaign.silent_frac",
                  static_cast<double>(ref.result.silents) / faults, "ratio");
      metrics.add("campaign.artifact_write_s",
                  med([](const TracedCampaign& t) { return t.times.write; }),
                  "s");
      metrics.add("campaign.artifact_bytes",
                  static_cast<double>(ref.artifact.bytes), "B");
      metrics.add("campaign.journal_bytes",
                  static_cast<double>(ref.journalBytes), "B");
      metrics.add("analytics.fold_s",
                  med([](const TracedCampaign& t) { return t.times.fold; }),
                  "s");
      metrics.add("trace.overhead_frac",
                  tracedCampaign / cb::median(untracedCampaign) - 1.0,
                  "ratio");
      metrics.add("trace.span_coverage_frac",
                  med([](const TracedCampaign& t) { return t.spanCoverage; }),
                  "ratio");
      for (const char* layer : {"bench", "service", "mc8051", "synth", "fpga",
                                "core", "vfit", "sim", "campaign",
                                "analytics"}) {
        metrics.add(std::string("self_s.") + layer,
                    med([layer](const TracedCampaign& t) {
                      const auto it = t.selfByLayer.find(layer);
                      return it == t.selfByLayer.end() ? 0.0 : it->second;
                    }),
                    "s");
      }
      const std::string tracePath =
          (std::filesystem::path(args.workDir) /
           (workload.name + "-seed" + std::to_string(args.seed) +
            ".trace.json"))
              .string();
      std::ofstream(tracePath) << cb::chromeTraceJson(tracer.spans.snapshot());
      std::fprintf(stderr, "spans written to %s\n", tracePath.c_str());
      if (med([](const TracedCampaign& t) { return t.spanCoverage; }) < 0.95) {
        check.fail(0, "top-level spans cover less than 95% of campaign time");
      }
    }

    std::fprintf(stderr, "%s seed %llu: %zu campaigns (%zu traced), %llu "
                         "experiments attempted, %llu failed the checks\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 untraced.size() + traced.size(), traced.size(),
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(check.failed));
    metrics.printTable(stderr);
    for (const auto& p : check.problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }

    Json result = Json::object();
    result.set("correct", Json(check.ok()));
    result.set("attempted", Json(static_cast<unsigned long long>(attempted)));
    result.set("failed", Json(static_cast<unsigned long long>(
                             std::min(check.failed, attempted))));
    result.set("metrics", metrics.json());
    std::printf("%s\n", result.dump().c_str());
    return check.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
