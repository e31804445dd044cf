#include "pipeline.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <span>
#include <thread>
#include <utility>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "synth/implement.hpp"
#include "synth/techmap.hpp"

namespace campaign_bench {

namespace fs = std::filesystem;
using fades::campaign::CampaignEngine;
using fades::campaign::CampaignSpec;
using fades::campaign::ExperimentOutcome;
using fades::campaign::FaultModel;
using fades::campaign::TargetClass;
using fades::common::ErrorKind;
using fades::common::require;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Span-name layer of a tool's engine calls.
std::string engineLayer(const Workload& w) {
  return w.tool == "fades" ? "core" : w.tool;
}

/// Wraps an engine replica for the traced run: every call becomes a span
/// under the runner's campaign.run span, with the experiment index as its
/// request id, and its duration feeds the per-layer distributions.
class TracingEngine final : public CampaignEngine {
 public:
  TracingEngine(std::unique_ptr<CampaignEngine> inner, std::string layer,
                Tracer& tracer)
      : inner_(std::move(inner)), layer_(std::move(layer)), tracer_(tracer) {}

  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override {
    const Call call(*this, layer_ + ".enumerate_pool", -1);
    return inner_->enumeratePool(spec);
  }

  ExperimentOutcome runExperimentAt(const CampaignSpec& spec,
                                    std::span<const std::uint32_t> pool,
                                    unsigned index, unsigned rerun) override {
    const Call call(*this, layer_ + ".run_experiment", index);
    ExperimentOutcome out = inner_->runExperimentAt(spec, pool, index, rerun);
    const double ms = call.elapsedMs();
    std::lock_guard<std::mutex> lock(tracer_.calls.mu);
    tracer_.calls.experimentMs.push_back(ms);
    (out.outcome == fades::campaign::Outcome::Silent
         ? tracer_.calls.silentMs
         : tracer_.calls.nonsilentMs)
        .push_back(ms);
    ++tracer_.calls.experimentsRun;
    return out;
  }

  void recover() override {
    const Call call(*this, layer_ + ".recover", -1);
    inner_->recover();
  }

  unsigned waveWidth() const override { return inner_->waveWidth(); }

  ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, const ExperimentOutcome& representative) override {
    return inner_->synthesizeOutcome(spec, pool, index, representative);
  }

  std::vector<ExperimentOutcome> runWaveAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) override {
    const Call call(*this, "sim.run_wave",
                    indices.empty() ? -1 : indices.front());
    std::vector<ExperimentOutcome> out =
        inner_->runWaveAt(spec, pool, indices, rerun);
    const double ms = call.elapsedMs();
    std::lock_guard<std::mutex> lock(tracer_.calls.mu);
    tracer_.calls.waveMs.push_back(ms);
    tracer_.calls.waveFill.push_back(static_cast<double>(indices.size()) /
                                     inner_->waveWidth());
    tracer_.calls.experimentsRun += indices.size();
    return out;
  }

 private:
  /// One engine call: a span plus its share of the engine-busy total.
  class Call {
   public:
    Call(TracingEngine& engine, std::string name, std::int64_t request)
        : tracer_(engine.tracer_),
          id_(tracer_.spans.open(std::move(name), tracer_.runSpan.load(),
                                 request)),
          t0_(std::chrono::steady_clock::now()) {}
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    ~Call() {
      tracer_.spans.close(id_);
      const double s = secondsSince(t0_);
      std::lock_guard<std::mutex> lock(tracer_.calls.mu);
      tracer_.calls.busySeconds += s;
    }
    double elapsedMs() const { return secondsSince(t0_) * 1e3; }

   private:
    Tracer& tracer_;
    int id_;
    std::chrono::steady_clock::time_point t0_;
  };

  std::unique_ptr<CampaignEngine> inner_;
  std::string layer_;
  Tracer& tracer_;
};

/// Build `jobs` replicas concurrently, one thread each, timing every
/// factory call.
std::vector<std::unique_ptr<CampaignEngine>> buildReplicas(
    const fades::campaign::EngineFactory& factory, unsigned jobs,
    const std::string& layer, Tracer* tracer, int parentSpan,
    std::vector<double>& seconds) {
  std::vector<std::unique_ptr<CampaignEngine>> engines(jobs);
  std::vector<std::exception_ptr> errors(jobs);
  seconds.assign(jobs, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) {
    threads.emplace_back([&, w] {
      try {
        const ScopedSpan span(tracer != nullptr ? &tracer->spans : nullptr,
                              layer + ".replica_build", parentSpan);
        const auto t0 = std::chrono::steady_clock::now();
        engines[w] = factory();
        seconds[w] = secondsSince(t0);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& e : engines) {
    require(e != nullptr, ErrorKind::InvalidArgument,
            "engine factory returned null");
  }
  return engines;
}

/// Hands prebuilt replicas to the runner, one per factory call.
fades::campaign::EngineFactory prebuiltFactory(
    std::vector<std::unique_ptr<CampaignEngine>> engines) {
  struct Pool {
    std::mutex mu;
    std::vector<std::unique_ptr<CampaignEngine>> engines;
  };
  auto pool = std::make_shared<Pool>();
  pool->engines = std::move(engines);
  return [pool]() -> std::unique_ptr<CampaignEngine> {
    std::lock_guard<std::mutex> lock(pool->mu);
    require(!pool->engines.empty(), ErrorKind::InvalidArgument,
            "the runner asked for more replicas than set-up built");
    auto engine = std::move(pool->engines.back());
    pool->engines.pop_back();
    return engine;
  };
}

std::uint64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload is here is recorded in BENCHMARK.json and README.md.
  static const std::vector<Workload> all = {
      {"fades-pulse-lut", "fades", "event", FaultModel::Pulse,
       TargetClass::CombinationalLut, 200, 1, false, 7.5},
      {"fades-bitflip-mem-x2", "fades", "event", FaultModel::BitFlip,
       TargetClass::MemoryBlockBit, 400, 2, false, 7.5},
      {"vfit-compiled-records", "vfit", "compiled", FaultModel::BitFlip,
       TargetClass::SequentialFF, 10000, 1, true, 6.0},
  };
  return all;
}

const Workload* findWorkload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

fades::service::JobSpec jobFor(const Workload& workload, std::uint64_t seed) {
  fades::service::JobSpec job;
  job.tool = workload.tool;
  job.engine = workload.engine;
  job.workload = "bubblesort6";
  job.keepRecords = true;
  job.spec.model = workload.model;
  job.spec.targets = workload.targets;
  job.spec.unit = 0;  // any unit
  job.spec.band = fades::campaign::DurationBand::shortBand();
  job.spec.experiments = workload.experiments;
  job.spec.seed = seed;
  job.name = fades::service::defaultName(job);
  fades::service::validate(job);
  return job;
}

CampaignRun runCampaign(const Workload& workload,
                        const fades::service::JobSpec& job,
                        const std::string& workDir, Tracer* tracer) {
  SpanBuffer* spans = tracer != nullptr ? &tracer->spans : nullptr;
  const std::string layer = engineLayer(workload);
  const std::string stem =
      (fs::path(workDir) / (workload.name + "-" + std::to_string(::getpid())))
          .string();
  const std::string artifactPath = stem + ".run.json";
  const std::string journalPath = stem + ".journal.jsonl";
  fs::remove(artifactPath);
  fs::remove(journalPath);

  CampaignRun run;
  const auto t0 = std::chrono::steady_clock::now();
  {
    const ScopedSpan root(spans, "bench.campaign");
    run.rootSpan = root.id();

    std::vector<std::unique_ptr<CampaignEngine>> engines;
    {
      const ScopedSpan setup(spans, "bench.setup", root.id());
      {
        const ScopedSpan s(spans, "service.build_system", setup.id());
        run.system = fades::service::buildSystem(job);
      }
      engines = buildReplicas(run.system->factory, workload.jobs, layer,
                              tracer, setup.id(), run.times.replicaBuild);
    }
    run.times.setup = secondsSince(t0);

    if (tracer != nullptr) {
      for (auto& e : engines) {
        e = std::make_unique<TracingEngine>(std::move(e), layer, *tracer);
      }
    }
    fades::campaign::ParallelOptions options;
    options.jobs = workload.jobs;
    std::unique_ptr<fades::campaign::CampaignJournal> journal;
    if (workload.journal) {
      journal = std::make_unique<fades::campaign::CampaignJournal>(
          journalPath, fades::campaign::FsyncPolicy::Never);
      options.journal = journal.get();
    }
    fades::campaign::ParallelCampaignRunner runner(
        prebuiltFactory(std::move(engines)), options);
    {
      const auto t1 = std::chrono::steady_clock::now();
      const ScopedSpan s(spans, "campaign.run", root.id());
      if (tracer != nullptr) tracer->runSpan.store(s.id());
      run.result = runner.run(job.spec);
      if (journal != nullptr) journal->close();
      run.times.run = secondsSince(t1);
    }
    {
      const auto t2 = std::chrono::steady_clock::now();
      const ScopedSpan s(spans, "campaign.artifact_write", root.id());
      fades::campaign::toRunArtifact(run.result, job.name,
                                     /*includeMetrics=*/false)
          .writeJson(artifactPath);
      run.times.write = secondsSince(t2);
    }
    {
      const auto t3 = std::chrono::steady_clock::now();
      const ScopedSpan s(spans, "analytics.fold", root.id());
      run.reloaded = fades::analytics::loadRunArtifact(artifactPath);
      const auto report = fades::analytics::buildReport({run.reloaded});
      const std::string text = fades::analytics::toJson(report).dump(2);
      require(!text.empty(), ErrorKind::InvalidArgument, "empty report");
      run.reportTotals = report.totals;
      run.times.fold = secondsSince(t3);
    }
    run.times.campaign = secondsSince(t0);
  }

  run.artifact = summarizeArtifact(artifactPath);
  run.journalBytes = fileBytes(journalPath);
  fs::remove(artifactPath);
  fs::remove(journalPath);
  return run;
}

LayerProbe probeLayers(const fades::service::CampaignSystem& system,
                       Tracer& tracer) {
  LayerProbe probe;
  const ScopedSpan root(&tracer.spans, "bench.probes");
  {
    const auto program = fades::mc8051::bubblesort(6);
    const auto t0 = std::chrono::steady_clock::now();
    const ScopedSpan s(&tracer.spans, "mc8051.build_core", root.id());
    const auto netlist = fades::mc8051::buildCore(program.bytes);
    probe.buildCoreS = secondsSince(t0);
    require(netlist.gateCount() == system.netlist.gateCount(),
            ErrorKind::InvalidArgument,
            "probe netlist differs from the campaign's");
  }
  if (!system.impl) return probe;
  const fades::synth::Implementation& impl = *system.impl;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const ScopedSpan s(&tracer.spans, "synth.techmap", root.id());
    const auto mapped = fades::synth::techmap(system.netlist);
    probe.techmapS = secondsSince(t0);
    require(!mapped.luts.empty(), ErrorKind::InvalidArgument,
            "techmap produced no LUTs");
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const ScopedSpan s(&tracer.spans, "synth.implement", root.id());
    const auto again = fades::synth::implement(system.netlist, impl.spec);
    probe.implementS = secondsSince(t0);
    probe.implementStats = again.stats;
  }
  {
    fades::fpga::Device device(impl.spec);
    device.writeFullBitstream(impl.bitstream);
    const auto t0 = std::chrono::steady_clock::now();
    const ScopedSpan s(&tracer.spans, "fpga.golden_steps", root.id());
    for (std::uint64_t c = 0; c < system.runCycles; ++c) device.step();
    probe.stepUs = secondsSince(t0) * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, system.runCycles));
  }
  return probe;
}

std::vector<unsigned> sampleIndices(unsigned experiments, std::uint64_t seed,
                                    unsigned count) {
  std::vector<unsigned> out;
  if (experiments == 0) return out;
  count = std::min(count, experiments);
  auto add = [&out](unsigned i) {
    for (const unsigned j : out) {
      if (j == i) return;
    }
    out.push_back(i);
  };
  add(0);
  add(experiments - 1);
  fades::common::Rng rng(seed);
  while (out.size() < count) {
    add(static_cast<unsigned>(rng.below(experiments)));
  }
  return out;
}

void replaySample(const CampaignRun& run, const std::vector<unsigned>& indices,
                  CheckReport& report) {
  const auto& records = run.reloaded.records;
  if (records.size() != run.result.spec.experiments) return;  // already failed
  const fades::service::JobSpec& job = run.system->job;
  std::shared_ptr<fades::service::CampaignSystem> referenceSystem;
  std::unique_ptr<CampaignEngine> reference;
  if (job.tool == "vfit" && job.engine == "compiled") {
    fades::service::JobSpec eventJob = job;
    eventJob.engine = "event";
    referenceSystem = fades::service::buildSystem(eventJob);
    reference = referenceSystem->factory();
  } else {
    reference = run.system->factory();  // a fresh replica
  }
  const auto pool = reference->enumeratePool(job.spec);
  for (const unsigned index : indices) {
    const ExperimentOutcome replayed =
        reference->runExperimentAt(job.spec, pool, index, 0);
    checkReplay(index, replayed, records[index], report);
  }
}

}  // namespace campaign_bench
