#include "service/jobspec.hpp"

#include <utility>

#include "campaign/artifact.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "mc8051/workloads.hpp"
#include "prune/prune.hpp"
#include "rtl/demo.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "service/wire.hpp"
#include "sim/engine.hpp"
#include "vfit/vfit.hpp"

namespace fades::service {

using campaign::CampaignSpec;
using common::ErrorKind;
using common::require;
using obs::Json;
using obs::readNumber;
using obs::readString;

namespace {

constexpr const char* kJobSchema = "fades.job/1";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

Json toJson(const JobSpec& job) {
  Json j = Json::object();
  j.set("schema", Json(std::string(kJobSchema)));
  j.set("tool", Json(job.tool));
  j.set("engine", Json(job.engine));
  j.set("workload", Json(job.workload));
  j.set("spec", campaign::toJson(job.spec));
  j.set("link_fault_rate", Json(job.linkFaultRate));
  j.set("keep_records", Json(job.keepRecords));
  // Emitted only when set so every pre-pruning job keeps its fingerprint
  // (the journal filename and worker cache key).
  if (job.prune) j.set("prune", Json(true));
  j.set("name", Json(job.name));
  return j;
}

bool jobSpecFromJson(const Json& j, JobSpec& out, std::string* error) {
  if (!j.isObject()) return fail(error, "job spec is not an object");
  out = JobSpec{};
  std::string schema;
  if (!readString(j, "schema", schema) || schema != kJobSchema) {
    return fail(error, "job spec is not " + std::string(kJobSchema));
  }
  if (!readString(j, "tool", out.tool) ||
      !readString(j, "engine", out.engine) ||
      !readString(j, "workload", out.workload) ||
      !readString(j, "name", out.name)) {
    return fail(error, "job spec misses tool/engine/workload/name");
  }
  if (!readNumber(j, "link_fault_rate", out.linkFaultRate)) {
    return fail(error, "job spec misses link_fault_rate");
  }
  const Json* keep = j.find("keep_records");
  if (keep == nullptr) return fail(error, "job spec misses keep_records");
  out.keepRecords = keep->asBool();
  if (const Json* prune = j.find("prune")) out.prune = prune->asBool();

  const Json* spec = j.find("spec");
  if (spec == nullptr || !spec->isObject()) {
    return fail(error, "job spec misses spec");
  }
  return campaign::specFromJson(*spec, out.spec, error);
}

void validate(const JobSpec& job) {
  require(job.tool == "fades" || job.tool == "vfit" ||
              job.tool == "autonomous",
          ErrorKind::InvalidArgument, "unknown tool '" + job.tool + "'");
  require(job.engine == "event" || job.engine == "compiled",
          ErrorKind::InvalidArgument, "unknown engine '" + job.engine + "'");
  require(job.tool != "fades" || job.engine == "event",
          ErrorKind::InvalidArgument,
          "the compiled engine requires tool vfit or autonomous (FADES "
          "drives the FPGA)");
  require(job.workload == "bubblesort6" || job.workload == "demo",
          ErrorKind::InvalidArgument,
          "unknown workload '" + job.workload + "'");
  require(job.spec.experiments > 0, ErrorKind::InvalidArgument,
          "campaign needs at least one experiment");
  require(job.linkFaultRate >= 0.0 && job.linkFaultRate < 1.0,
          ErrorKind::InvalidArgument, "link fault rate must be in [0, 1)");
  require(job.linkFaultRate == 0.0 || job.tool == "fades",
          ErrorKind::InvalidArgument,
          "link faults require the fades tool (the other injectors move no "
          "frames over a board link)");
  // The wire format carries the pool size only (matching the journal spec
  // binding); explicit pools stay a single-process feature.
  require(job.spec.targetPool.empty(), ErrorKind::InvalidArgument,
          "explicit target pools are not supported by the service");
  require(!job.prune || job.tool == "fades" || job.tool == "vfit",
          ErrorKind::InvalidArgument,
          "pruning requires the fades or vfit tool (the autonomous backend "
          "cannot synthesize collapsed outcomes)");
  // Link faults can quarantine a representative that its collapsed members
  // would have survived, which would break byte-identity with the unpruned
  // campaign - the property pruning exists to preserve.
  require(!job.prune || job.linkFaultRate == 0.0, ErrorKind::InvalidArgument,
          "pruning requires a reliable link (no --link-faults)");
}

namespace {

/// One spelling table per enum: the keywords the job command line accepts
/// and spelling() prints.
template <class T>
struct Spelling {
  const char* name;
  T value;
};

using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Unit;

constexpr Spelling<FaultModel> kModels[] = {
    {"bitflip", FaultModel::BitFlip}, {"pulse", FaultModel::Pulse},
    {"delay", FaultModel::Delay}, {"indet", FaultModel::Indetermination}};
constexpr Spelling<TargetClass> kTargets[] = {
    {"ff", TargetClass::SequentialFF},
    {"memory", TargetClass::MemoryBlockBit},
    {"lut", TargetClass::CombinationalLut},
    {"seqline", TargetClass::SequentialLine},
    {"combline", TargetClass::CombinationalLine}};
constexpr Spelling<Unit> kUnits[] = {
    {"any", Unit::None}, {"registers", Unit::Registers}, {"ram", Unit::Ram},
    {"alu", Unit::Alu},  {"mem", Unit::MemCtrl},         {"fsm", Unit::Fsm}};
constexpr Spelling<campaign::DurationBand (*)()> kBands[] = {
    {"sub", &campaign::DurationBand::subCycle},
    {"short", &campaign::DurationBand::shortBand},
    {"long", &campaign::DurationBand::longBand}};

/// Unlisted values print as the first spelling, as an out-of-range unit
/// read from a job file always has.
template <class T, std::size_t N>
const char* nameOf(const Spelling<T> (&table)[N], T value) {
  for (const auto& s : table) {
    if (s.value == value) return s.name;
  }
  return table[0].name;
}

/// Strict keyword lookup: a mistyped band or a shifted artifact path is an
/// error naming the value, never a silent fall-back to the default.
template <class T, std::size_t N>
T parseSpelling(const Spelling<T> (&table)[N], const std::string& text,
                const char* what) {
  std::string names;
  for (const auto& s : table) {
    if (text == s.name) return s.value;
    names += (names.empty() ? "" : " | ") + std::string(s.name);
  }
  common::raise(ErrorKind::InvalidArgument, std::string(what) + " expects " +
                                                names + ", got '" + text +
                                                "'");
}

}  // namespace

const char* spelling(FaultModel model) { return nameOf(kModels, model); }

const char* spelling(TargetClass targets) {
  return targets == TargetClass::CbInputLine ? "cbinput"
                                             : nameOf(kTargets, targets);
}

const char* spelling(Unit unit) { return nameOf(kUnits, unit); }

std::string defaultName(const JobSpec& job) {
  return std::string(spelling(job.spec.model)) + "_" +
         spelling(job.spec.targets) + "_" +
         spelling(static_cast<Unit>(job.spec.unit));
}

JobSpec parseJobArgs(const std::vector<std::string>& args,
                     std::string* trailing) {
  JobSpec job;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      require(i + 1 < args.size(), ErrorKind::InvalidArgument,
              a + " needs a value");
      return args[++i];
    };
    if (a == "--tool") {
      job.tool = value();
    } else if (a == "--engine") {
      job.engine = value();
    } else if (a == "--link-faults") {
      job.linkFaultRate = common::parseProbability(value(), a);
    } else if (!a.empty() && a[0] == '-') {
      common::raise(ErrorKind::InvalidArgument, "unknown flag '" + a + "'");
    } else {
      positional.push_back(a);
    }
  }
  require(positional.size() <= (trailing != nullptr ? 6u : 5u),
          ErrorKind::InvalidArgument, "too many positional arguments");
  // Omitted positionals keep the defaults: bitflip ff any 200 short.
  const std::size_t given = positional.size();
  CampaignSpec& spec = job.spec;
  if (given > 0) spec.model = parseSpelling(kModels, positional[0], "model");
  if (given > 1) {
    spec.targets = parseSpelling(kTargets, positional[1], "targets");
  }
  if (given > 2) {
    spec.unit = static_cast<int>(parseSpelling(kUnits, positional[2], "unit"));
  }
  spec.experiments =
      given > 3 ? common::parseUnsigned<unsigned>(positional[3], "faults", 1)
                : 200;
  if (given > 4) spec.band = parseSpelling(kBands, positional[4], "band")();
  if (given > 5) *trailing = positional[5];
  spec.seed = 2006;
  job.name = defaultName(job);
  return job;
}

std::string fingerprint(const JobSpec& job) {
  return fnv1a64Hex(toJson(job).dump());
}

std::shared_ptr<CampaignSystem> buildSystem(const JobSpec& job,
                                            const BuildKnobs& knobs) {
  validate(job);
  auto sys = std::make_shared<CampaignSystem>();
  sys->job = job;

  std::vector<std::string> observed;
  std::shared_ptr<campaign::InstructionTrace> trace;
  if (job.workload == "demo") {
    sys->runCycles = 64;
    sys->netlist = rtl::demoDesign();
    observed = {"out"};
  } else {
    const auto workload = mc8051::bubblesort(6);
    sys->runCycles = workload.cycles;
    sys->netlist = mc8051::buildCore(workload.bytes);
    observed = {"p0", "p1"};
    if (job.keepRecords) {
      // Golden-run PC attribution, shared across replicas - the same trace
      // campaign_8051 attaches, so records match field for field.
      mc8051::Iss iss(workload.bytes);
      const auto samples = iss.tracePcPerCycle(workload.cycles);
      trace = std::make_shared<campaign::InstructionTrace>();
      trace->reserve(samples.size());
      for (const auto& s : samples) {
        trace->push_back(campaign::InstructionSample{s.pc, s.opcode});
      }
    }
  }

  sys->observedOutputs = observed;

  const sim::EngineKind engineKind = job.engine == "compiled"
                                         ? sim::EngineKind::Compiled
                                         : sim::EngineKind::EventDriven;

  if (job.tool == "vfit") {
    vfit::VfitOptions vopt;
    vopt.observedOutputs = observed;
    vopt.keepRecords = job.keepRecords;
    vopt.engine = engineKind;
    sys->factory =
        vfit::vfitEngineFactory(sys->netlist, sys->runCycles, vopt);
  } else if (job.tool == "autonomous") {
    core::AutonomousOptions aopt;
    aopt.observedOutputs = observed;
    aopt.keepRecords = job.keepRecords;
    aopt.engine = engineKind;
    sys->factory =
        core::autonomousEngineFactory(sys->netlist, sys->runCycles, aopt);
  } else {
    sys->impl = synth::implement(sys->netlist,
                                 job.workload == "demo"
                                     ? fpga::DeviceSpec::small()
                                     : fpga::DeviceSpec::virtex1000Like());
    core::FadesOptions options;
    options.observedOutputs = observed;
    options.keepRecords = job.keepRecords;
    options.sessionFrameCache = knobs.sessionFrameCache;
    options.instructionTrace = std::move(trace);
    if (job.linkFaultRate > 0.0) {
      options.linkFaults.readCrcRate = job.linkFaultRate;
      options.linkFaults.writeFailRate = job.linkFaultRate;
      options.linkFaults.timeoutRate = job.linkFaultRate / 10.0;
    }
    sys->factory =
        core::fadesEngineFactory(*sys->impl, sys->runCycles, options);
  }
  return sys;
}

campaign::PrunePlan buildPrunePlan(const CampaignSystem& sys) {
  const JobSpec& job = sys.job;
  require(job.tool == "fades" || job.tool == "vfit",
          ErrorKind::InvalidArgument,
          "pruning requires the fades or vfit tool");

  sim::Simulator golden(sys.netlist);
  const sim::GoldenTrace trace =
      sim::GoldenTrace::record(golden, sys.netlist, sys.runCycles);

  prune::AnalysisInputs in;
  in.netlist = &sys.netlist;
  in.trace = &trace;
  in.runCycles = sys.runCycles;
  in.observedOutputs = sys.observedOutputs;

  // One engine replica provides the pool enumeration and (for fades) the
  // target-name convention; both are pure functions of the job, so the
  // resulting plan is too.
  const auto engine = sys.factory();
  require(engine != nullptr, ErrorKind::InvalidArgument,
          "engine factory returned null");
  const auto pool = engine->enumeratePool(job.spec);
  if (job.tool == "fades") {
    in.decode = prune::fadesDecoder(*sys.impl, job.spec.targets);
    in.name = [tool = static_cast<core::FadesTool*>(engine.get()),
               cls = job.spec.targets](std::uint32_t handle) {
      return tool->targetName(cls, handle);
    };
  } else {
    in.decode = prune::vfitDecoder(sys.netlist, job.spec.targets);
    in.name = [](std::uint32_t handle) { return std::to_string(handle); };
    // VFIT's cost is a pure function of (model, window) - command counting
    // - so outcome-pinning fates merge across the whole target pool.
    in.uniformCostAcrossTargets = true;
  }
  return prune::buildPlan(job.spec, pool, in);
}

std::string artifactText(const JobSpec& job,
                         const campaign::CampaignResult& result) {
  const std::string name = job.name.empty() ? defaultName(job) : job.name;
  // Metrics excluded for the same reason campaign_8051 excludes them: they
  // reflect scheduling, which would break byte-identity across worker
  // counts. dump(2) + "\n" is exactly RunArtifact::writeJson's encoding.
  const auto artifact =
      campaign::toRunArtifact(result, name, /*includeMetrics=*/false);
  return artifact.toJson().dump(2) + "\n";
}

}  // namespace fades::service
