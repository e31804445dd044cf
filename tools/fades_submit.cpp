// Campaign submission and retrieval client.
//
// Talks fades.wire/1 to a running coordinator:
//   fades_submit --port P submit [job args]   register a campaign, print its
//                                             fingerprint
//   fades_submit --port P status [FP]         one status line (or campaign
//                                             list)
//   fades_submit --port P watch FP            poll status until complete
//   fades_submit --port P fetch FP [--out F]  fetch the merged artifact
//   fades_submit --store DIR fetch FP [--out F]
//                                             offline fetch straight from
//                                             the content-addressed store
//                                             (no coordinator needed)
//
// Job args are campaign_8051's: the same service::parseJobArgs grammar
// ([--tool fades|vfit|autonomous] [--engine event|compiled]
// [--link-faults R] [model] [targets] [unit] [faults] [band]) and the same
// service::validate rules, plus this client's own [--workload
// bubblesort6|demo] [--no-records] [--name NAME]. Everything is parsed
// before the coordinator is dialed: malformed arguments exit 2, a failed
// request exits 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/parse.hpp"
#include "obs/json.hpp"
#include "service/jobspec.hpp"
#include "service/wire.hpp"

using namespace fades;
using obs::Json;

namespace {

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: fades_submit --port P submit [job args]\n"
      "       fades_submit --port P status [FP]\n"
      "       fades_submit --port P watch FP\n"
      "       fades_submit --port P fetch FP [--out FILE]\n"
      "       fades_submit --store DIR fetch FP [--out FILE]\n"
      "job args: [--tool fades|vfit|autonomous] [--engine event|compiled]\n"
      "          [--workload bubblesort6|demo] [--link-faults R]\n"
      "          [--no-records] [--name NAME]\n"
      "          [model] [targets] [unit] [faults] [band]\n",
      message.c_str());
  std::exit(2);
}

service::Socket dial(const std::string& host, std::uint16_t port) {
  service::Socket sock = service::connectTo(host, port, /*timeoutMs=*/5000);
  Json hello = Json::object();
  hello.set("type", Json(std::string("hello")));
  hello.set("schema", Json(std::string(service::kWireSchema)));
  hello.set("role", Json(std::string("client")));
  service::sendMessage(sock, hello);
  const auto welcome = service::recvMessage(sock, 5000);
  common::require(welcome.has_value(), common::ErrorKind::LinkError,
                  "coordinator closed during handshake");
  return sock;
}

Json rpc(const service::Socket& sock, const Json& request) {
  service::sendMessage(sock, request);
  const auto reply = service::recvMessage(sock, /*timeoutMs=*/30000);
  common::require(reply.has_value(), common::ErrorKind::LinkError,
                  "coordinator closed the connection");
  return *reply;
}

std::string stringField(const Json& j, const char* key) {
  std::string value;
  obs::readString(j, key, value);
  return value;
}

std::uint64_t numberField(const Json& j, const char* key) {
  std::uint64_t value = 0;
  obs::readU64(j, key, value);
  return value;
}

/// The shared job grammar plus this client's own job flags, validated.
service::JobSpec parseJob(const std::vector<std::string>& args) {
  std::string workload = "bubblesort6";
  std::string name;
  bool keepRecords = true;
  std::vector<std::string> jobArgs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usageError(a + " needs a value");
      return args[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--no-records") {
      keepRecords = false;
    } else if (a == "--name") {
      name = value();
    } else {
      jobArgs.push_back(a);
    }
  }
  service::JobSpec job = service::parseJobArgs(jobArgs);
  job.workload = workload;
  job.keepRecords = keepRecords;
  if (!name.empty()) job.name = name;
  service::validate(job);
  return job;
}

void printStatus(const Json& report) {
  const std::string fp = stringField(report, "fingerprint");
  if (!fp.empty()) {
    const Json* complete = report.find("complete");
    std::printf("%s  %llu/%llu%s", fp.c_str(),
                static_cast<unsigned long long>(numberField(report, "done")),
                static_cast<unsigned long long>(numberField(report, "total")),
                complete != nullptr && complete->asBool() ? "  complete"
                                                          : "");
    const std::string object = stringField(report, "object");
    if (!object.empty()) std::printf("  object %s", object.c_str());
    std::printf("\n");
  } else if (const Json* list = report.find("campaigns")) {
    for (const auto& name : list->items()) {
      std::printf("%s\n", name.asString().c_str());
    }
  }
  std::printf(
      "workers %llu active / %llu quarantined; leases %llu granted, "
      "%llu expired, %llu requeued; %llu bytes streamed\n",
      static_cast<unsigned long long>(numberField(report, "workers_active")),
      static_cast<unsigned long long>(
          numberField(report, "workers_quarantined")),
      static_cast<unsigned long long>(numberField(report, "leases_granted")),
      static_cast<unsigned long long>(numberField(report, "leases_expired")),
      static_cast<unsigned long long>(numberField(report, "leases_requeued")),
      static_cast<unsigned long long>(numberField(report, "bytes_streamed")));
}

int fetchOffline(const std::string& storeDir, const std::string& fp,
                 const std::string& outPath) {
  std::ifstream meta(storeDir + "/campaigns/" + fp + ".json");
  std::stringstream metaText;
  metaText << meta.rdbuf();
  const auto parsed = Json::parse(metaText.str());
  if (!parsed) {
    std::fprintf(stderr, "error: no readable campaign meta for %s in %s\n",
                 fp.c_str(), storeDir.c_str());
    return 1;
  }
  const std::string object = stringField(*parsed, "object");
  if (object.empty()) {
    std::fprintf(stderr, "error: campaign %s is not complete\n", fp.c_str());
    return 1;
  }
  std::ifstream in(storeDir + "/objects/" + object + ".json",
                   std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  if (content.str().empty()) {
    std::fprintf(stderr, "error: artifact object %s is missing\n",
                 object.c_str());
    return 1;
  }
  if (outPath.empty()) {
    std::fputs(content.str().c_str(), stdout);
  } else {
    common::writeFile(outPath, content.str());
    std::printf("wrote %s (object %s)\n", outPath.c_str(), object.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string storeDir;
  std::string outPath;
  std::string command;
  std::vector<std::string> rest;
  service::JobSpec job;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) usageError(a + " needs a value");
        return argv[++i];
      };
      if (a == "--port") {
        port = common::parseUnsigned<std::uint16_t>(value(), "--port", 1);
      } else if (a == "--host") {
        host = value();
      } else if (a == "--store") {
        storeDir = value();
      } else if (a == "--out") {
        outPath = value();
      } else if (command.empty() && !a.empty() && a[0] != '-') {
        command = a;
      } else {
        rest.push_back(a);
      }
    }
    if (command == "submit") job = parseJob(rest);
  } catch (const common::FadesError& e) {
    usageError(e.what());
  }
  if (command.empty()) usageError("missing command");

  try {
    if (command == "fetch" && !storeDir.empty()) {
      if (rest.empty()) usageError("fetch needs a fingerprint");
      return fetchOffline(storeDir, rest[0], outPath);
    }
    if (port == 0) usageError("--port is required (or --store for fetch)");

    if (command == "submit") {
      const service::Socket sock = dial(host, port);
      Json msg = Json::object();
      msg.set("type", Json(std::string("submit")));
      msg.set("job", service::toJson(job));
      const Json reply = rpc(sock, msg);
      const std::string fp = stringField(reply, "fingerprint");
      if (fp.empty()) {
        std::fprintf(stderr, "error: %s\n",
                     stringField(reply, "error").c_str());
        return 1;
      }
      std::printf("%s\n", fp.c_str());
      return 0;
    }
    if (command == "status" || command == "watch") {
      const service::Socket sock = dial(host, port);
      Json msg = Json::object();
      msg.set("type", Json(std::string("status")));
      if (!rest.empty()) msg.set("fingerprint", Json(rest[0]));
      if (command == "status") {
        const Json reply = rpc(sock, msg);
        if (stringField(reply, "type") == "error") {
          std::fprintf(stderr, "error: %s\n",
                       stringField(reply, "error").c_str());
          return 1;
        }
        printStatus(reply);
        return 0;
      }
      if (rest.empty()) usageError("watch needs a fingerprint");
      for (;;) {
        const Json reply = rpc(sock, msg);
        if (stringField(reply, "type") == "error") {
          std::fprintf(stderr, "error: %s\n",
                       stringField(reply, "error").c_str());
          return 1;
        }
        printStatus(reply);
        const Json* complete = reply.find("complete");
        if (complete != nullptr && complete->asBool()) return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
    }
    if (command == "fetch") {
      if (rest.empty()) usageError("fetch needs a fingerprint");
      const service::Socket sock = dial(host, port);
      Json msg = Json::object();
      msg.set("type", Json(std::string("fetch")));
      msg.set("fingerprint", Json(rest[0]));
      const Json reply = rpc(sock, msg);
      if (stringField(reply, "type") != "artifact") {
        std::fprintf(stderr, "error: %s\n",
                     stringField(reply, "error").c_str());
        return 1;
      }
      const std::string content = stringField(reply, "content");
      if (outPath.empty()) {
        std::fputs(content.c_str(), stdout);
      } else {
        common::writeFile(outPath, content);
        std::printf("wrote %s (object %s)\n", outPath.c_str(),
                    stringField(reply, "object").c_str());
      }
      return 0;
    }
    usageError("unknown command '" + command + "'");
  } catch (const common::FadesError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
