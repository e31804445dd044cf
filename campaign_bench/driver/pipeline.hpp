// One campaign from netlist to folded report, as the campaign benchmark
// measures it:
//
//   1. service::buildSystem (netlist build, then synthesis for FADES)
//   2. building the engine replicas, one thread per job
//   3. campaign::ParallelCampaignRunner::run on those replicas
//   4. campaign::toRunArtifact + writeJson
//   5. analytics::loadRunArtifact -> buildReport -> toJson
//
// Steps 1-2 are set-up. The runner builds replicas lazily inside its first
// run(); the benchmark builds them itself and hands them over through a
// wrapping EngineFactory, so set-up and the experiment phase are timed
// apart while the runner itself is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/analytics.hpp"
#include "campaign/types.hpp"
#include "check.hpp"
#include "service/jobspec.hpp"
#include "spans.hpp"

namespace campaign_bench {

/// One benchmark workload: a campaign_8051-equivalent job on bubblesort6.
struct Workload {
  std::string name;
  std::string tool;    // service::JobSpec::tool
  std::string engine;  // service::JobSpec::engine
  fades::campaign::FaultModel model;
  fades::campaign::TargetClass targets;
  unsigned experiments;
  unsigned jobs;
  bool journal;  // checkpoint journal without fsync
  /// Host seconds of one campaign on the reference machine (4 vCPUs); sets
  /// how many campaigns fill a run of --seconds.
  double nominalCampaignSeconds;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* findWorkload(std::string_view name);

/// The validated job for a workload: unit any, short band, records kept,
/// reliable link, campaign seed `seed`.
fades::service::JobSpec jobFor(const Workload& workload, std::uint64_t seed);

/// Engine-call observations gathered by the traced run's engine wrappers.
struct EngineCalls {
  std::mutex mu;
  std::vector<double> experimentMs;  // runExperimentAt
  std::vector<double> silentMs;      // ... that returned Silent
  std::vector<double> nonsilentMs;   // ... that returned Latent or Failure
  std::vector<double> waveMs;        // runWaveAt
  std::vector<double> waveFill;      // experiments per wave / waveWidth()
  std::uint64_t experimentsRun = 0;  // experiments handed to the engine
  double busySeconds = 0;            // sum of engine-call spans
};

/// Recording state of a traced run. Untraced campaigns get no Tracer and
/// take none of these paths.
struct Tracer {
  SpanBuffer spans;
  EngineCalls calls;
  /// Parent span for engine calls made from the runner's worker threads.
  std::atomic<int> runSpan{-1};
};

/// Host time of one campaign's phases, in seconds.
struct CampaignTimes {
  double setup = 0;     // buildSystem + every replica
  double run = 0;       // ParallelCampaignRunner::run
  double write = 0;     // toRunArtifact + writeJson
  double fold = 0;      // loadRunArtifact + buildReport + toJson
  double campaign = 0;  // netlist to folded report
  std::vector<double> replicaBuild;  // one per replica
};

struct CampaignRun {
  CampaignTimes times;
  fades::campaign::CampaignResult result;
  fades::analytics::CampaignInput reloaded;
  fades::analytics::OutcomeSlice reportTotals;
  ArtifactSummary artifact;
  std::uint64_t journalBytes = 0;
  std::shared_ptr<fades::service::CampaignSystem> system;
  int rootSpan = -1;  // the traced run's bench.campaign span
};

/// Run one campaign. Artifact and journal files go to `workDir` and are
/// removed before returning.
CampaignRun runCampaign(const Workload& workload,
                        const fades::service::JobSpec& job,
                        const std::string& workDir, Tracer* tracer);

/// Host time of standalone calls into the layers set-up uses, made on the
/// finished campaign's system (traced run only; not part of campaign time).
struct LayerProbe {
  double buildCoreS = 0;  // mc8051::buildCore of the workload program
  double techmapS = 0;    // synth::techmap of the netlist (FADES only)
  double implementS = 0;  // synth::implement of the netlist (FADES only)
  double stepUs = 0;      // per fpga::Device::step over a golden run
  fades::synth::ImplementationStats implementStats;
};

LayerProbe probeLayers(const fades::service::CampaignSystem& system,
                       Tracer& tracer);

/// `count` distinct experiment indices of a campaign: the first, the last
/// and the rest drawn from `seed`.
std::vector<unsigned> sampleIndices(unsigned experiments, std::uint64_t seed,
                                    unsigned count);

/// Re-run `indices` in isolation - FADES on a fresh replica, VFIT on the
/// event-driven reference engine - and compare each with the folded record
/// of the reloaded artifact.
void replaySample(const CampaignRun& run, const std::vector<unsigned>& indices,
                  CheckReport& report);

}  // namespace campaign_bench
