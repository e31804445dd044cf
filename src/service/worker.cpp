#include "service/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace fades::service {

using campaign::CampaignJournal;
using campaign::ExperimentOutcome;
using common::ErrorKind;
using common::FadesError;
using common::require;
using obs::Json;
using obs::readString;
using obs::readU64;

namespace {

std::string messageType(const Json& j) {
  std::string type;
  readString(j, "type", type);
  return type;
}

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerOptions options) : opt_(std::move(options)) {
  if (opt_.name.empty()) {
    opt_.name = "worker-" + std::to_string(::getpid());
  }
}

void WorkerDaemon::sleepInterruptible(int ms) {
  // 50 ms slices so stop() takes effect promptly even inside a long backoff.
  while (ms > 0 && !stop_.load()) {
    const int slice = std::min(ms, 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

int WorkerDaemon::run() {
  int backoffMs = opt_.reconnectBaseMs;
  unsigned failures = 0;
  while (!stop_.load()) {
    Socket sock;
    try {
      sock = connectTo(opt_.host, opt_.port, opt_.recvTimeoutMs);
      Json hello = Json::object();
      hello.set("type", Json(std::string("hello")));
      hello.set("schema", Json(std::string(kWireSchema)));
      hello.set("role", Json(std::string("worker")));
      hello.set("worker", Json(opt_.name));
      sendMessage(sock, hello);
      const auto welcome = recvMessage(sock, opt_.recvTimeoutMs);
      require(welcome && messageType(*welcome) == "welcome",
              ErrorKind::LinkError, "coordinator did not answer the hello");
    } catch (const FadesError& e) {
      ++failures;
      if (opt_.maxReconnects != 0 && failures >= opt_.maxReconnects) {
        FADES_LOG(Error) << "worker giving up"
                         << obs::kv("worker", opt_.name)
                         << obs::kv("failures",
                                    static_cast<std::uint64_t>(failures))
                         << obs::kv("error", e.what());
        return 1;
      }
      FADES_LOG(Warn) << "worker reconnect backoff"
                      << obs::kv("worker", opt_.name)
                      << obs::kv("backoff_ms",
                                 static_cast<std::uint64_t>(backoffMs))
                      << obs::kv("error", e.what());
      sleepInterruptible(backoffMs);
      backoffMs = std::min(backoffMs * 2, opt_.reconnectCapMs);
      continue;
    }
    failures = 0;
    backoffMs = opt_.reconnectBaseMs;
    Served served = Served::LinkLost;
    try {
      served = serveConnection(sock);
    } catch (const FadesError& e) {
      // Wire trouble mid-conversation: drop the connection and let the
      // reconnect loop try again. The coordinator re-leases anything we
      // were holding once the deadline passes.
      FADES_LOG(Warn) << "worker link lost" << obs::kv("worker", opt_.name)
                      << obs::kv("error", e.what());
    }
    if (served == Served::Shutdown) {
      FADES_LOG(Info) << "worker shutdown by coordinator"
                      << obs::kv("worker", opt_.name);
      return 0;
    }
    if (served == Served::Stopped) return 0;
  }
  return 0;
}

WorkerDaemon::Served WorkerDaemon::serveConnection(const Socket& sock) {
  while (!stop_.load()) {
    Json request = Json::object();
    request.set("type", Json(std::string("lease_request")));
    request.set("worker", Json(opt_.name));
    sendMessage(sock, request);
    const auto reply = recvMessage(sock, opt_.recvTimeoutMs);
    if (!reply) return Served::LinkLost;
    const std::string type = messageType(*reply);
    if (type == "shutdown") return Served::Shutdown;
    if (type == "lease") {
      runLease(sock, *reply);
      continue;
    }
    if (type == "idle") {
      std::uint64_t retryMs = 200;
      readU64(*reply, "retry_ms", retryMs);
      sleepInterruptible(static_cast<int>(std::min<std::uint64_t>(
          retryMs, 5000)));
      continue;
    }
    // "error" or anything unexpected: pause briefly rather than hot-loop.
    FADES_LOG(Warn) << "unexpected coordinator reply"
                    << obs::kv("worker", opt_.name) << obs::kv("type", type);
    sleepInterruptible(200);
  }
  return Served::Stopped;
}

WorkerDaemon::CachedSystem& WorkerDaemon::systemFor(const JobSpec& job,
                                                    const std::string& fp) {
  const auto it = systems_.find(fp);
  if (it != systems_.end()) {
    it->second.lastUsed = ++useSeq_;
    return it->second;
  }
  if (systems_.size() >= std::max(1u, opt_.maxCachedSystems)) {
    // Evict the least recently used system; campaigns usually arrive in
    // batches of one or two, so thrash here means the operator under-sized
    // the cache, not a correctness problem.
    auto victim = systems_.begin();
    for (auto i = systems_.begin(); i != systems_.end(); ++i) {
      if (i->second.lastUsed < victim->second.lastUsed) victim = i;
    }
    systems_.erase(victim);
  }
  CachedSystem cached;
  cached.system = buildSystem(job);
  cached.engine = cached.system->factory();
  require(cached.engine != nullptr, ErrorKind::InvalidArgument,
          "engine factory returned null");
  cached.pool = cached.engine->enumeratePool(job.spec);
  if (job.prune) {
    // Every worker derives the identical plan (a pure function of the job),
    // so synthesized outcomes still satisfy the byzantine agreement checks.
    cached.plan = buildPrunePlan(*cached.system);
    cached.memberClass = cached.plan.memberClassIndex();
  }
  cached.lastUsed = ++useSeq_;
  return systems_.emplace(fp, std::move(cached)).first->second;
}

campaign::ExperimentOutcome WorkerDaemon::runJobExperiment(
    CachedSystem& sys, const JobSpec& job, std::uint64_t index,
    obs::Counter& quarantined) {
  if (job.prune && index < sys.memberClass.size() &&
      sys.memberClass[index] >= 0) {
    const auto& cls =
        sys.plan.classes[static_cast<std::size_t>(sys.memberClass[index])];
    auto rep = sys.repOutcomes.find(cls.representative);
    if (rep == sys.repOutcomes.end()) {
      // The representative may be leased to another worker (or to this one,
      // later); outcomes are pure functions of (job, index), so running it
      // locally once reproduces the identical result for cloning.
      rep = sys.repOutcomes
                .emplace(cls.representative,
                         campaign::runExperimentWithRetry(
                             *sys.engine, job.spec, sys.pool,
                             static_cast<unsigned>(cls.representative),
                             opt_.experimentAttempts, quarantined))
                .first;
    }
    if (!rep->second.quarantined) {
      return sys.engine->synthesizeOutcome(job.spec, sys.pool,
                                           static_cast<unsigned>(index),
                                           rep->second);
    }
  }
  auto outcome = campaign::runExperimentWithRetry(
      *sys.engine, job.spec, sys.pool, static_cast<unsigned>(index),
      opt_.experimentAttempts, quarantined);
  if (job.prune && index < sys.memberClass.size() &&
      sys.memberClass[index] < 0) {
    // Cache representatives executed through regular leases so members
    // leased later clone instead of re-running them. Classes are sorted by
    // representative index.
    const auto it = std::lower_bound(
        sys.plan.classes.begin(), sys.plan.classes.end(), index,
        [](const campaign::PruneClass& c, std::uint64_t idx) {
          return c.representative < idx;
        });
    if (it != sys.plan.classes.end() && it->representative == index) {
      sys.repOutcomes.emplace(index, outcome);
    }
  }
  return outcome;
}

void WorkerDaemon::runLease(const Socket& sock, const Json& lease) {
  std::string fp;
  std::uint64_t leaseId = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  const Json* jobJson = lease.find("job");
  std::string error;
  JobSpec job;
  require(readString(lease, "fingerprint", fp) &&
              readU64(lease, "lease_id", leaseId) &&
              readU64(lease, "first", first) &&
              readU64(lease, "count", count) && jobJson != nullptr &&
              jobSpecFromJson(*jobJson, job, &error),
          ErrorKind::LinkError, "malformed lease: " + error);

  auto release = [&](const std::string& why) {
    Json msg = Json::object();
    msg.set("type", Json(std::string("release")));
    msg.set("worker", Json(opt_.name));
    msg.set("fingerprint", Json(fp));
    msg.set("lease_id", Json(leaseId));
    msg.set("first", Json(first));
    msg.set("error", Json(why));
    sendMessage(sock, msg);
    recvMessage(sock, opt_.recvTimeoutMs);  // release_ack / error - ignored
  };

  if (poisoned_.find(fp) != poisoned_.end()) {
    release("worker cannot build this campaign: " + poisoned_[fp]);
    return;
  }

  CachedSystem* sys = nullptr;
  try {
    sys = &systemFor(job, fp);
  } catch (const FadesError& e) {
    // A job this worker cannot build (bad spec for this build, fatal
    // engine setup error) is released back, and remembered so the same
    // lease does not ping-pong here forever.
    poisoned_[fp] = e.what();
    FADES_LOG(Error) << "worker cannot build campaign"
                     << obs::kv("worker", opt_.name)
                     << obs::kv("fingerprint", fp)
                     << obs::kv("error", e.what());
    release(e.what());
    return;
  }

  obs::Counter& quarantined =
      obs::Registry::global().counter("campaign.quarantined");
  std::vector<ExperimentOutcome> outcomes;
  outcomes.reserve(count);
  auto lastBeat = std::chrono::steady_clock::now();
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (stop_.load()) return;  // abandon; the lease expires on its own
    ExperimentOutcome outcome;
    try {
      outcome = runJobExperiment(*sys, job, i, quarantined);
    } catch (const FadesError& e) {
      if (e.kind() == ErrorKind::LinkError) throw;
      poisoned_[fp] = e.what();
      release(e.what());
      return;
    }
    if (opt_.tamper) opt_.tamper(outcome);
    outcomes.push_back(std::move(outcome));

    const auto now = std::chrono::steady_clock::now();
    if (now - lastBeat >= std::chrono::milliseconds(opt_.heartbeatMs)) {
      lastBeat = now;
      Json beat = Json::object();
      beat.set("type", Json(std::string("heartbeat")));
      beat.set("worker", Json(opt_.name));
      beat.set("fingerprint", Json(fp));
      beat.set("lease_id", Json(leaseId));
      beat.set("first", Json(first));
      beat.set("done", Json(static_cast<std::uint64_t>(outcomes.size())));
      sendMessage(sock, beat);
      const auto ack = recvMessage(sock, opt_.recvTimeoutMs);
      if (!ack) {
        common::raise(ErrorKind::LinkError,
                      "coordinator closed during heartbeat");
      }
      if (messageType(*ack) != "heartbeat_ack") {
        // Revoked: the deadline passed and the block belongs to someone
        // else now. Abandon the rest; a late duplicate completion would
        // only burn the digest checker's time.
        FADES_LOG(Warn) << "lease revoked mid-block"
                        << obs::kv("worker", opt_.name)
                        << obs::kv("fingerprint", fp)
                        << obs::kv("first", first);
        return;
      }
    }
  }

  Json complete = Json::object();
  complete.set("type", Json(std::string("complete")));
  complete.set("worker", Json(opt_.name));
  complete.set("fingerprint", Json(fp));
  complete.set("lease_id", Json(leaseId));
  complete.set("first", Json(first));
  Json list = Json::array();
  for (const auto& outcome : outcomes) {
    list.push(CampaignJournal::outcomeJson(outcome));
  }
  complete.set("outcomes", std::move(list));
  sendMessage(sock, complete);
  const auto ack = recvMessage(sock, opt_.recvTimeoutMs);
  if (!ack) {
    common::raise(ErrorKind::LinkError, "coordinator closed during completion");
  }
  if (messageType(*ack) == "error") {
    std::string why;
    readString(*ack, "error", why);
    FADES_LOG(Warn) << "completion rejected" << obs::kv("worker", opt_.name)
                    << obs::kv("fingerprint", fp) << obs::kv("error", why);
  }
}

}  // namespace fades::service
