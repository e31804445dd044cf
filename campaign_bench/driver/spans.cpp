#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/json.hpp"

namespace campaign_bench {

namespace {

unsigned threadNumber() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned mine = next.fetch_add(1);
  return mine;
}

}  // namespace

int SpanBuffer::open(std::string name, int parent, std::int64_t request) {
  SpanRecord s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  s.thread = threadNumber();
  s.startNs = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanBuffer::close(int id) {
  const std::int64_t end = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).endNs = end;
}

std::vector<SpanRecord> SpanBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string layerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> selfSeconds(const std::vector<SpanRecord>& spans) {
  // Span ids are positions in the buffer, but accept any id assignment.
  std::map<int, std::size_t> position;
  for (std::size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    const auto it = position.find(s.parent);
    if (it == position.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t lo = std::max(s.startNs, p.startNs);
    const std::int64_t hi = std::min(s.endNs, p.endNs);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t curLo = 0;
    std::int64_t curHi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= curHi) {
        curHi = std::max(curHi, hi);
        continue;
      }
      if (open) covered += curHi - curLo;
      curLo = lo;
      curHi = hi;
      open = true;
    }
    if (open) covered += curHi - curLo;
    out[i] = static_cast<double>(spans[i].endNs - spans[i].startNs - covered) *
             1e-9;
  }
  return out;
}

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = selfSeconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layerOf(spans[i].name)] += self[i];
  }
  return out;
}

std::string chromeTraceJson(const std::vector<SpanRecord>& spans) {
  using fades::obs::Json;
  std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
  for (const auto& s : spans) origin = std::min(origin, s.startNs);
  Json events = Json::array();
  for (const auto& s : spans) {
    Json e = Json::object();
    e.set("name", Json(s.name));
    e.set("cat", Json(layerOf(s.name)));
    e.set("ph", Json(std::string("X")));
    e.set("ts", Json(static_cast<double>(s.startNs - origin) / 1e3));
    e.set("dur", Json(static_cast<double>(s.endNs - s.startNs) / 1e3));
    e.set("pid", Json(1));
    e.set("tid", Json(s.thread));
    Json args = Json::object();
    args.set("id", Json(s.id));
    args.set("parent", Json(s.parent));
    args.set("request", Json(static_cast<long long>(s.request)));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json(std::string("ms")));
  return doc.dump() + "\n";
}

}  // namespace campaign_bench
