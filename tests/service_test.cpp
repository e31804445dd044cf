// Distributed campaign service tests.
//
// Every scenario here runs coordinator and workers in-process over real
// loopback sockets - the same wire path the fades_coordinator/fades_worker
// binaries use - so the tests cover the protocol, not a mock of it. The
// chaos cases (vanished worker, coordinator restart) simulate SIGKILL by
// dropping connections / destroying the coordinator without any graceful
// goodbye; the crash-safe store is what must carry the state across.
//
// The load-bearing assertion throughout: the merged artifact text equals a
// serial in-process fold of the same JobSpec, byte for byte, at any worker
// count and under any kill schedule.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "service/coordinator.hpp"
#include "service/jobspec.hpp"
#include "service/wire.hpp"
#include "service/worker.hpp"

namespace fades {
namespace {

namespace fs = std::filesystem;
using obs::Json;

fs::path makeTempDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("fades-service-test-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The fast multi-unit workload; every service test uses it so a full
/// campaign finishes in well under a second per worker.
service::JobSpec demoJob(unsigned experiments, std::uint64_t seed = 11) {
  service::JobSpec job;
  job.workload = "demo";
  job.spec.experiments = experiments;
  job.spec.seed = seed;
  return job;
}

/// Serial in-process reference: fold every experiment in index order through
/// the same buildSystem/runExperimentWithRetry path the workers use. This is
/// the byte-identity target for every distributed scenario.
std::string referenceArtifact(const service::JobSpec& job) {
  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  campaign::CampaignResult result;
  result.spec = job.spec;
  auto& quarantined = obs::Registry::global().counter("test.quarantined");
  for (unsigned i = 0; i < job.spec.experiments; ++i) {
    result.fold(campaign::runExperimentWithRetry(*engine, job.spec, pool, i,
                                                 3, quarantined));
  }
  return service::artifactText(job, result);
}

/// Minimal raw-wire client: performs the hello handshake and exposes one
/// request/response exchange. Used to drive the coordinator into the edge
/// cases a well-behaved WorkerDaemon never produces.
class RawClient {
 public:
  RawClient(std::uint16_t port, const std::string& worker) : worker_(worker) {
    sock_ = service::connectTo("127.0.0.1", port, 2000);
    Json hello = Json::object();
    hello.set("type", Json(std::string("hello")));
    hello.set("schema", Json(std::string(service::kWireSchema)));
    hello.set("role", Json(std::string("worker")));
    hello.set("worker", Json(worker));
    service::sendMessage(sock_, hello);
    const auto welcome = service::recvMessage(sock_, 2000);
    if (!welcome) throw std::runtime_error("no welcome");
  }

  Json rpc(Json msg) {
    msg.set("worker", Json(worker_));
    service::sendMessage(sock_, msg);
    const auto reply = service::recvMessage(sock_, 5000);
    if (!reply) throw std::runtime_error("connection closed mid-rpc");
    return *reply;
  }

  Json lease() {
    Json msg = Json::object();
    msg.set("type", Json(std::string("lease_request")));
    return rpc(std::move(msg));
  }

  /// Drop the connection with no release - the wire-visible signature of a
  /// SIGKILLed worker.
  void vanish() { sock_.close(); }

  const std::string& name() const { return worker_; }

 private:
  service::Socket sock_;
  std::string worker_;
};

std::string typeOf(const Json& msg) {
  const Json* t = msg.find("type");
  return t != nullptr && t->isString() ? t->asString() : std::string();
}

std::uint64_t u64Of(const Json& msg, const char* key) {
  const Json* v = msg.find(key);
  return v != nullptr && v->isNumber()
             ? static_cast<std::uint64_t>(v->asInt())
             : 0;
}

std::string stringOf(const Json& msg, const char* key) {
  const Json* v = msg.find(key);
  return v != nullptr && v->isString() ? v->asString() : std::string();
}

/// Honest outcomes for one leased block, computed through the exact worker
/// discipline, serialized through the journal codec - what a correct worker
/// would stream back.
Json honestOutcomes(campaign::CampaignEngine& engine,
                    const campaign::CampaignSpec& spec,
                    const std::vector<std::uint32_t>& pool,
                    std::uint64_t first, std::uint64_t count) {
  auto& quarantined = obs::Registry::global().counter("test.quarantined");
  Json outcomes = Json::array();
  for (std::uint64_t i = first; i < first + count; ++i) {
    outcomes.push(campaign::CampaignJournal::outcomeJson(
        campaign::runExperimentWithRetry(engine, spec, pool,
                                         static_cast<unsigned>(i), 3,
                                         quarantined)));
  }
  return outcomes;
}

std::uint64_t counterValue(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Wire framing

TEST(ServiceWire, RoundTripAndCleanEof) {
  service::Listener listener(0);
  std::optional<service::Socket> serverSide;
  std::thread acceptor([&] {
    auto s = listener.accept(2000);
    ASSERT_TRUE(s.valid());
    serverSide.emplace(std::move(s));
  });
  service::Socket client =
      service::connectTo("127.0.0.1", listener.port(), 2000);
  acceptor.join();

  Json msg = Json::object();
  msg.set("type", Json(std::string("ping")));
  msg.set("payload", Json(std::string("x\ny\"z")));  // framing, not lines
  msg.set("n", Json(std::uint64_t(123456789012345ull)));
  service::sendMessage(client, msg);
  const auto got = service::recvMessage(*serverSide, 2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->dump(), msg.dump());

  // Clean EOF at a frame boundary is a disconnect, not an error.
  client.close();
  const auto eof = service::recvMessage(*serverSide, 2000);
  EXPECT_FALSE(eof.has_value());
}

TEST(ServiceWire, FingerprintIsStable) {
  const service::JobSpec job = demoJob(16);
  EXPECT_EQ(service::fingerprint(job), service::fingerprint(job));
  service::JobSpec other = job;
  other.spec.seed += 1;
  EXPECT_NE(service::fingerprint(job), service::fingerprint(other));
  // keepRecords changes the artifact's record list, so it is job identity.
  service::JobSpec bare = job;
  bare.keepRecords = false;
  EXPECT_NE(service::fingerprint(job), service::fingerprint(bare));
}

TEST(ServiceJobSpec, JsonRoundTripPreservesIdentity) {
  service::JobSpec job = demoJob(24, 7);
  job.spec.model = campaign::FaultModel::Pulse;
  job.spec.targets = campaign::TargetClass::CombinationalLut;
  job.name = "round-trip";
  service::JobSpec back;
  std::string error;
  ASSERT_TRUE(service::jobSpecFromJson(service::toJson(job), back, &error))
      << error;
  EXPECT_EQ(service::fingerprint(job), service::fingerprint(back));
}

TEST(ServiceJobSpec, JsonTextRoundTripKeepsFullRangeSeed) {
  // Through the text form the coordinator stores and workers read: a seed
  // above INT64_MAX must survive exactly, fingerprint included.
  service::JobSpec job = demoJob(24, UINT64_MAX);
  const auto parsed = Json::parse(service::toJson(job).dump());
  ASSERT_TRUE(parsed.has_value());
  service::JobSpec back;
  std::string error;
  ASSERT_TRUE(service::jobSpecFromJson(*parsed, back, &error)) << error;
  EXPECT_EQ(back.spec.seed, UINT64_MAX);
  EXPECT_EQ(service::fingerprint(job), service::fingerprint(back));
}

TEST(ServiceJobSpec, SpecFieldsMustBeNonNegativeIntegers) {
  Json j = service::toJson(demoJob(24));
  Json spec = *j.find("spec");
  spec.set("seed", Json(-1));
  j.set("spec", spec);
  service::JobSpec back;
  std::string error;
  EXPECT_FALSE(service::jobSpecFromJson(j, back, &error));
  EXPECT_EQ(error, "spec misses unit/experiments/seed");
}

TEST(ServiceJobSpec, ValidateRejectsNonsense) {
  service::JobSpec job = demoJob(8);
  job.tool = "hope";
  EXPECT_THROW(service::validate(job), common::FadesError);
  job = demoJob(0);
  EXPECT_THROW(service::validate(job), common::FadesError);
  job = demoJob(8);
  job.linkFaultRate = 1.5;
  EXPECT_THROW(service::validate(job), common::FadesError);
}

// ---------------------------------------------------------------------------
// The job command line campaign_8051 and fades_submit share

using Args = std::vector<std::string>;

TEST(ServiceJobArgs, EverySpellingParsesAndNamesBack) {
  for (const char* model : {"bitflip", "pulse", "delay", "indet"}) {
    for (const char* targets : {"ff", "memory", "lut", "seqline", "combline"}) {
      for (const char* unit :
           {"any", "registers", "ram", "alu", "mem", "fsm"}) {
        const service::JobSpec job =
            service::parseJobArgs({model, targets, unit});
        const std::string name =
            std::string(model) + "_" + targets + "_" + unit;
        EXPECT_EQ(job.name, name);
        EXPECT_EQ(service::defaultName(job), name);
      }
    }
  }
  const std::pair<const char*, const char*> bands[] = {
      {"sub", "<1"}, {"short", "1-10"}, {"long", "11-20"}};
  for (const auto& [band, label] : bands) {
    EXPECT_EQ(service::parseJobArgs({"bitflip", "ff", "any", "7", band})
                  .spec.band.label,
              label);
  }
}

TEST(ServiceJobArgs, DefaultsAndFlags) {
  const service::JobSpec job = service::parseJobArgs({});
  EXPECT_EQ(job.tool, "fades");
  EXPECT_EQ(job.engine, "event");
  EXPECT_EQ(job.spec.model, campaign::FaultModel::BitFlip);
  EXPECT_EQ(job.spec.targets, campaign::TargetClass::SequentialFF);
  EXPECT_EQ(job.spec.unit, 0);
  EXPECT_EQ(job.spec.experiments, 200u);
  EXPECT_EQ(job.spec.band.label, "1-10");
  EXPECT_EQ(job.spec.seed, 2006u);
  EXPECT_EQ(job.name, "bitflip_ff_any");
  EXPECT_EQ(job.linkFaultRate, 0.0);

  // Flags anywhere; the trailing positional only where the caller takes it.
  std::string trailing;
  const service::JobSpec vfit = service::parseJobArgs(
      {"pulse", "--tool", "vfit", "lut", "--engine", "compiled", "alu", "9",
       "long", "run.json"},
      &trailing);
  EXPECT_EQ(vfit.tool, "vfit");
  EXPECT_EQ(vfit.engine, "compiled");
  EXPECT_EQ(vfit.spec.experiments, 9u);
  EXPECT_EQ(vfit.name, "pulse_lut_alu");
  EXPECT_EQ(trailing, "run.json");
  EXPECT_THROW(service::parseJobArgs({"pulse", "lut", "alu", "9", "long",
                                      "run.json"}),
               common::FadesError);
  EXPECT_EQ(service::parseJobArgs({"--link-faults", "0.25"}).linkFaultRate,
            0.25);
}

TEST(ServiceJobArgs, DefaultNameIsPinnedForEveryEnumValue) {
  // campaign_bench names its artifacts with defaultName, and its pinned
  // digests cover those names.
  service::JobSpec job;
  const std::pair<campaign::FaultModel, const char*> models[] = {
      {campaign::FaultModel::BitFlip, "bitflip"},
      {campaign::FaultModel::Pulse, "pulse"},
      {campaign::FaultModel::Delay, "delay"},
      {campaign::FaultModel::Indetermination, "indet"}};
  for (const auto& [model, text] : models) {
    job.spec.model = model;
    EXPECT_EQ(service::defaultName(job), std::string(text) + "_ff_any");
  }
  job.spec.model = campaign::FaultModel::BitFlip;
  const std::pair<campaign::TargetClass, const char*> targets[] = {
      {campaign::TargetClass::SequentialFF, "ff"},
      {campaign::TargetClass::MemoryBlockBit, "memory"},
      {campaign::TargetClass::CombinationalLut, "lut"},
      {campaign::TargetClass::CbInputLine, "cbinput"},
      {campaign::TargetClass::SequentialLine, "seqline"},
      {campaign::TargetClass::CombinationalLine, "combline"}};
  for (const auto& [cls, text] : targets) {
    job.spec.targets = cls;
    EXPECT_EQ(service::defaultName(job), "bitflip_" + std::string(text) +
                                             "_any");
  }
  job.spec.targets = campaign::TargetClass::SequentialFF;
  const std::pair<netlist::Unit, const char*> units[] = {
      {netlist::Unit::None, "any"},     {netlist::Unit::Registers, "registers"},
      {netlist::Unit::Ram, "ram"},      {netlist::Unit::Alu, "alu"},
      {netlist::Unit::MemCtrl, "mem"},  {netlist::Unit::Fsm, "fsm"}};
  for (const auto& [unit, text] : units) {
    job.spec.unit = static_cast<int>(unit);
    EXPECT_EQ(service::defaultName(job), "bitflip_ff_" + std::string(text));
  }
}

TEST(ServiceJobArgs, MalformedArgumentsAreInvalid) {
  const Args rejected[] = {
      {"flip"},
      {"pulse", "lutt"},
      {"bitflip", "ff", "anything"},
      {"bitflip", "ff", "any", "200", "shrt"},
      {"bitflip", "ff", "any", "12abc"},
      {"bitflip", "ff", "any", "-1"},
      {"bitflip", "ff", "any", "0"},
      {"bitflip", "ff", "any", "4294967296"},
      {"pulse", "cbinput"},  // named, never parsed: no MC8051 CB inputs
      {""},
      {"--link-faults", "abc"},
      {"--link-faults", "1.5"},
      {"--link-faults", "-0.1"},
      {"--link-faults"},
      {"--jobs", "2"},
      {"bitflip", "ff", "any", "200", "short", "extra"},
  };
  for (const auto& args : rejected) {
    std::string joined;
    for (const auto& a : args) joined += "'" + a + "' ";
    try {
      service::validate(service::parseJobArgs(args));
      ADD_FAILURE() << "accepted " << joined;
    } catch (const common::FadesError& e) {
      EXPECT_EQ(e.kind(), common::ErrorKind::InvalidArgument) << joined;
    }
  }
  // Combination rules are validate()'s: the grammar parses, the job is
  // refused.
  const service::JobSpec compiledFades =
      service::parseJobArgs({"--engine", "compiled"});
  EXPECT_THROW(service::validate(compiledFades), common::FadesError);
  service::JobSpec vfitLink =
      service::parseJobArgs({"--tool", "vfit", "--link-faults", "0.1"});
  EXPECT_THROW(service::validate(vfitLink), common::FadesError);
  // The same number parser refuses an out-of-range port.
  EXPECT_THROW(common::parseUnsigned<std::uint16_t>("70000", "--port", 1),
               common::FadesError);
}

TEST(ServiceJobArgs, SubmittedJobsKeepTheirFingerprints) {
  // Fingerprints of fades_submit argument vectors, recorded from the client
  // before the grammar was shared: the store's journal names depend on them.
  struct Pinned {
    Args args;
    const char* fingerprint;
  };
  const Pinned pinned[] = {
      {{}, "450ab3ae10f1e626"},
      {{"bitflip", "ff", "any", "200", "short"}, "450ab3ae10f1e626"},
      {{"--tool", "vfit", "--engine", "compiled", "pulse", "lut", "alu", "300",
        "long"},
       "8f0407b9379fb10e"},
      {{"--link-faults", "0.02", "bitflip", "memory", "ram", "50"},
       "1d6c4116f97ec904"},
      {{"--tool", "autonomous", "indet", "seqline", "fsm", "7", "sub"},
       "c9adb2850307fc87"},
      {{"delay", "combline", "mem", "10"}, "449558f9163cdb88"},
      {{"--tool", "vfit", "--engine", "event", "bitflip", "ff", "registers",
        "63"},
       "d9e9a00d207251a0"},
  };
  for (const auto& p : pinned) {
    const service::JobSpec job = service::parseJobArgs(p.args);
    service::validate(job);
    EXPECT_EQ(service::fingerprint(job), p.fingerprint) << job.name;
  }
  // fades_submit --workload demo --no-records --name x indet seqline fsm 7
  // sub: the client's own flags set these three fields.
  service::JobSpec demo =
      service::parseJobArgs({"indet", "seqline", "fsm", "7", "sub"});
  demo.workload = "demo";
  demo.keepRecords = false;
  demo.name = "x";
  EXPECT_EQ(service::fingerprint(demo), "8dc8ff5ea4cb3887");
}

// ---------------------------------------------------------------------------
// Satellite: ProgressTracker heartbeat with zero completions

TEST(ServiceProgress, HeartbeatWithZeroDoneEmitsNullEta) {
  std::vector<std::string> lines;
  obs::Logger::global().setSink([&](const obs::LogRecord& record) {
    const std::string line = obs::Logger::format(record);
    if (line.find("campaign progress") != std::string::npos) {
      lines.push_back(line);
    }
  });
  {
    // A large interval keeps record() from emitting on its own; only the
    // two explicit heartbeats below produce lines.
    campaign::ProgressTracker tracker("bit-flip", 1000, 500);
    tracker.heartbeat();  // zero completions: no rate exists yet
    campaign::ExperimentOutcome outcome;
    outcome.index = 0;
    outcome.outcome = campaign::Outcome::Failure;
    outcome.modeledSeconds = 0.25;
    tracker.record(outcome);
    tracker.heartbeat();  // one completion: a real ETA can be computed
  }
  obs::Logger::global().setSink({});

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("eta_wall_s=null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("done=0"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].find("eta_wall_s=null"), std::string::npos) << lines[1];
}

// ---------------------------------------------------------------------------
// Satellite: journal reader tolerance and bounds

TEST(ServiceJournal, ResumeToleratesCrlfLineEndings) {
  const fs::path dir = makeTempDir("crlf");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  spec.seed = 3;
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    for (std::uint64_t i = 0; i < 3; ++i) {
      campaign::ExperimentOutcome outcome;
      outcome.index = i;
      outcome.outcome = campaign::Outcome::Silent;
      outcome.modeledSeconds = 0.5 + static_cast<double>(i);
      journal.append(outcome);
    }
  }
  // A journal that passed through a Windows-side transfer: CRLF endings.
  std::string text = readFile(path);
  std::string crlf;
  for (const char ch : text) {
    if (ch == '\n') crlf += "\r\n";
    else crlf += ch;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << crlf;
  }
  campaign::CampaignJournal journal(path.string());
  journal.open(spec, /*resume=*/true);
  ASSERT_EQ(journal.completed().size(), 3u);
  EXPECT_EQ(journal.completed().at(1).modeledSeconds, 1.5);
  fs::remove_all(dir);
}

TEST(ServiceJournal, ResumeKeepsFullRangeSeed) {
  // The resume check compares the journal header's spec with the live one;
  // a seed above INT64_MAX must read back exactly for that to match.
  const fs::path dir = makeTempDir("u64seed");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  spec.seed = UINT64_MAX;
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    campaign::ExperimentOutcome outcome;
    outcome.index = 2;
    outcome.outcome = campaign::Outcome::Latent;
    journal.append(outcome);
  }
  campaign::CampaignJournal journal(path.string());
  ASSERT_NO_THROW(journal.open(spec, /*resume=*/true));
  ASSERT_EQ(journal.completed().size(), 1u);
  EXPECT_EQ(journal.completed().at(2).outcome, campaign::Outcome::Latent);
  fs::remove_all(dir);
}

TEST(ServiceJournal, OversizeLineIsConfigErrorNamingByteOffset) {
  const fs::path dir = makeTempDir("oversize");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  std::string headerText;
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    headerText = readFile(path);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << std::string(campaign::CampaignJournal::kMaxLineBytes + 16, 'x')
        << "\n";
  }
  campaign::CampaignJournal journal(path.string());
  try {
    journal.open(spec, /*resume=*/true);
    FAIL() << "oversize journal line must raise ConfigError";
  } catch (const common::FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset " + std::to_string(headerText.size())),
              std::string::npos)
        << "expected the offending line's byte offset in: " << what;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Coordinator protocol edge cases (raw wire, no WorkerDaemon)

struct CoordinatorFixture {
  explicit CoordinatorFixture(service::CoordinatorOptions options,
                              const std::string& tag)
      : dir(makeTempDir(tag)) {
    options.storeDir = (dir / "store").string();
    coordinator = std::make_unique<service::Coordinator>(std::move(options));
    coordinator->start();
  }
  ~CoordinatorFixture() {
    coordinator->stop();
    fs::remove_all(dir);
  }
  fs::path dir;
  std::unique_ptr<service::Coordinator> coordinator;
};

TEST(ServiceCoordinator, LeaseExpiryMidStreamRequeuesAndRevokes) {
  service::CoordinatorOptions options;
  options.blockSize = 4;
  options.leaseMs = 250;
  options.reaperTickMs = 25;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "lease-expiry");
  const service::JobSpec job = demoJob(8, 21);
  const std::string fp = fx.coordinator->submit(job);

  const std::uint64_t expiredBefore = counterValue("service.leases_expired");
  RawClient slacker(fx.coordinator->port(), "slacker");
  Json lease = slacker.lease();
  ASSERT_EQ(typeOf(lease), "lease");
  const std::uint64_t leaseId = u64Of(lease, "lease_id");
  const std::uint64_t first = u64Of(lease, "first");
  EXPECT_EQ(stringOf(lease, "fingerprint"), fp);

  // Mid-stream silence: no heartbeat, no completion. The reaper must take
  // the lease back and requeue the block for somebody else.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (counterValue("service.leases_expired") == expiredBefore &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(counterValue("service.leases_expired"), expiredBefore);

  // The zombie's late heartbeat is answered with a revocation...
  Json hb = Json::object();
  hb.set("type", Json(std::string("heartbeat")));
  hb.set("fingerprint", Json(fp));
  hb.set("lease_id", Json(leaseId));
  hb.set("first", Json(first));
  EXPECT_EQ(typeOf(slacker.rpc(std::move(hb))), "revoked");

  // ...and an honest worker finishes the campaign, late echoes and all.
  service::WorkerOptions wopt;
  wopt.port = fx.coordinator->port();
  wopt.name = "honest";
  wopt.heartbeatMs = 50;
  service::WorkerDaemon worker(wopt);
  std::thread workerThread([&] { worker.run(); });
  EXPECT_TRUE(fx.coordinator->waitForAllComplete(60000));
  worker.stop();
  workerThread.join();
  EXPECT_TRUE(fx.coordinator->campaignComplete(fp));
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

TEST(ServiceCoordinator, DoubleReleaseIsIdempotent) {
  service::CoordinatorOptions options;
  options.blockSize = 4;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "double-release");
  const service::JobSpec job = demoJob(8, 22);
  const std::string fp = fx.coordinator->submit(job);

  RawClient client(fx.coordinator->port(), "flaky");
  Json lease = client.lease();
  ASSERT_EQ(typeOf(lease), "lease");

  Json release = Json::object();
  release.set("type", Json(std::string("release")));
  release.set("fingerprint", Json(fp));
  release.set("lease_id", Json(u64Of(lease, "lease_id")));
  release.set("first", Json(u64Of(lease, "first")));
  release.set("error", Json(std::string("synthetic failure")));

  const std::uint64_t requeuedBefore =
      counterValue("service.leases_requeued");
  EXPECT_EQ(typeOf(client.rpc(Json(release))), "release_ack");
  EXPECT_EQ(counterValue("service.leases_requeued"), requeuedBefore + 1);
  // The second release of the same (now dead) lease must change nothing:
  // same ack, no double requeue of a block somebody else may hold by now.
  EXPECT_EQ(typeOf(client.rpc(Json(release))), "release_ack");
  EXPECT_EQ(counterValue("service.leases_requeued"), requeuedBefore + 1);
}

TEST(ServiceCoordinator, BlockIndexBeyondUnsignedRangeIsRejected) {
  // "first" = 2^32 names no block. It must not alias block 0 (the low 32
  // bits) and renew or complete the lease held there.
  service::CoordinatorOptions options;
  options.blockSize = 4;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "first-range");
  const service::JobSpec job = demoJob(8, 24);
  const std::string fp = fx.coordinator->submit(job);

  RawClient client(fx.coordinator->port(), "aliaser");
  Json lease = client.lease();
  ASSERT_EQ(typeOf(lease), "lease");
  ASSERT_EQ(u64Of(lease, "first"), 0u);
  const std::uint64_t beyond = std::uint64_t{1} << 32;

  Json hb = Json::object();
  hb.set("type", Json(std::string("heartbeat")));
  hb.set("fingerprint", Json(fp));
  hb.set("lease_id", Json(u64Of(lease, "lease_id")));
  hb.set("first", Json(beyond));
  const std::string hbType = typeOf(client.rpc(std::move(hb)));
  EXPECT_TRUE(hbType == "revoked" || hbType == "error") << hbType;

  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  Json complete = Json::object();
  complete.set("type", Json(std::string("complete")));
  complete.set("fingerprint", Json(fp));
  complete.set("lease_id", Json(u64Of(lease, "lease_id")));
  complete.set("first", Json(beyond));
  complete.set("outcomes", honestOutcomes(*engine, job.spec, pool, 0,
                                          u64Of(lease, "count")));
  EXPECT_EQ(typeOf(client.rpc(std::move(complete))), "error");
}

TEST(ServiceCoordinator, VanishedWorkerAfterPartialBlockDoesNotCorrupt) {
  service::CoordinatorOptions options;
  options.blockSize = 4;
  options.leaseMs = 250;
  options.reaperTickMs = 25;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "vanish");
  const service::JobSpec job = demoJob(12, 23);
  const std::string fp = fx.coordinator->submit(job);

  // The victim completes one block honestly, leases a second one, and is
  // then SIGKILLed (wire-wise: the connection just dies, no release).
  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  {
    RawClient victim(fx.coordinator->port(), "victim");
    Json lease = victim.lease();
    ASSERT_EQ(typeOf(lease), "lease");
    Json complete = Json::object();
    complete.set("type", Json(std::string("complete")));
    complete.set("fingerprint", Json(fp));
    complete.set("first", Json(u64Of(lease, "first")));
    complete.set("outcomes",
                 honestOutcomes(*engine, job.spec, pool,
                                u64Of(lease, "first"),
                                u64Of(lease, "count")));
    EXPECT_EQ(typeOf(victim.rpc(std::move(complete))), "complete_ack");
    Json second = victim.lease();
    ASSERT_EQ(typeOf(second), "lease");
    victim.vanish();  // partial block: leased, never completed
  }

  service::WorkerOptions wopt;
  wopt.port = fx.coordinator->port();
  wopt.name = "survivor";
  wopt.heartbeatMs = 50;
  service::WorkerDaemon worker(wopt);
  std::thread workerThread([&] { worker.run(); });
  EXPECT_TRUE(fx.coordinator->waitForAllComplete(60000));
  worker.stop();
  workerThread.join();
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

// ---------------------------------------------------------------------------
// Byzantine worker: detected, quarantined, merge unharmed

TEST(ServiceByzantine, TamperingWorkerIsBannedAndMergeStaysExact) {
  service::CoordinatorOptions options;
  options.blockSize = 4;
  options.progressLogMs = 0;
  options.auditEvery = 1;  // every block needs two agreeing workers
  options.shutdownWhenDone = true;
  CoordinatorFixture fx(options, "byzantine");
  const service::JobSpec job = demoJob(16, 24);
  const std::string fp = fx.coordinator->submit(job);

  auto makeWorker = [&](const std::string& name, bool tamper) {
    service::WorkerOptions wopt;
    wopt.port = fx.coordinator->port();
    wopt.name = name;
    wopt.heartbeatMs = 100;
    if (tamper) {
      wopt.tamper = [](campaign::ExperimentOutcome& outcome) {
        if (outcome.quarantined) return;
        outcome.outcome = outcome.outcome == campaign::Outcome::Silent
                              ? campaign::Outcome::Failure
                              : campaign::Outcome::Silent;
        if (outcome.hasRecord) outcome.record.outcome = outcome.outcome;
      };
    }
    return std::make_unique<service::WorkerDaemon>(std::move(wopt));
  };

  // Audit mode needs two honest voters for agreement; the liar makes three.
  auto liar = makeWorker("liar", true);
  auto honest1 = makeWorker("honest-1", false);
  auto honest2 = makeWorker("honest-2", false);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { liar->run(); });
  threads.emplace_back([&] { honest1->run(); });
  threads.emplace_back([&] { honest2->run(); });

  EXPECT_TRUE(fx.coordinator->waitForAllComplete(120000));
  liar->stop();
  honest1->stop();
  honest2->stop();
  for (auto& t : threads) t.join();

  const auto banned = fx.coordinator->bannedWorkers();
  EXPECT_NE(std::find(banned.begin(), banned.end(), "liar"), banned.end())
      << "tampering worker must be quarantined";
  EXPECT_EQ(std::find(banned.begin(), banned.end(), "honest-1"),
            banned.end());
  EXPECT_EQ(std::find(banned.begin(), banned.end(), "honest-2"),
            banned.end());
  EXPECT_GE(obs::Registry::global()
                .gauge("service.workers_quarantined")
                .value(),
            1.0);
  // The ban event survives in the store for the next coordinator life.
  EXPECT_NE(readFile(fx.dir / "store" / "service" / "events.jsonl")
                .find("\"worker\":\"liar\""),
            std::string::npos);
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

// ---------------------------------------------------------------------------
// Coordinator kill + --resume: byte identity at 1 / 4 / 8 workers

class ServiceResume : public ::testing::TestWithParam<int> {};

TEST_P(ServiceResume, KilledCoordinatorResumesToIdenticalArtifact) {
  const int workerCount = GetParam();
  const fs::path dir =
      makeTempDir("resume-" + std::to_string(workerCount));
  const std::string store = (dir / "store").string();
  const service::JobSpec job = demoJob(24, 25);
  std::string fp;

  // Life 1: a worker commits exactly one block, then the coordinator dies
  // without ceremony (no graceful drain of the campaign - the journal and
  // meta files in the store are all that survives).
  {
    service::CoordinatorOptions options;
    options.storeDir = store;
    options.blockSize = 4;
    options.progressLogMs = 0;
    service::Coordinator first(options);
    first.start();
    fp = first.submit(job);

    const auto system = service::buildSystem(job);
    const auto engine = system->factory();
    const auto pool = engine->enumeratePool(job.spec);
    RawClient seedWorker(first.port(), "seed");
    Json lease = seedWorker.lease();
    ASSERT_EQ(typeOf(lease), "lease");
    Json complete = Json::object();
    complete.set("type", Json(std::string("complete")));
    complete.set("fingerprint", Json(fp));
    complete.set("first", Json(u64Of(lease, "first")));
    complete.set("outcomes",
                 honestOutcomes(*engine, job.spec, pool,
                                u64Of(lease, "first"),
                                u64Of(lease, "count")));
    ASSERT_EQ(typeOf(seedWorker.rpc(std::move(complete))), "complete_ack");
    ASSERT_FALSE(first.campaignComplete(fp));
    first.stop();
  }

  // Life 2: --resume re-reads the store, workers finish the remainder.
  service::CoordinatorOptions options;
  options.storeDir = store;
  options.blockSize = 4;
  options.progressLogMs = 0;
  options.shutdownWhenDone = true;
  service::Coordinator second(options);
  second.start();
  const auto resumed = second.resumeFromStore();
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0], fp);

  std::vector<std::unique_ptr<service::WorkerDaemon>> workers;
  for (int i = 0; i < workerCount; ++i) {
    service::WorkerOptions wopt;
    wopt.port = second.port();
    wopt.name = "w" + std::to_string(i);
    wopt.heartbeatMs = 100;
    workers.push_back(std::make_unique<service::WorkerDaemon>(wopt));
  }
  std::vector<std::thread> threads;
  for (auto& w : workers) {
    threads.emplace_back([&w] { w->run(); });
  }
  EXPECT_TRUE(second.waitForAllComplete(120000));
  for (auto& w : workers) w->stop();
  for (auto& t : threads) t.join();

  EXPECT_EQ(readFile(second.artifactPath(fp)), referenceArtifact(job));
  second.stop();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ServiceResume,
                         ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace fades
