#include "obs/artifact.hpp"

#include "common/file.hpp"

namespace fades::obs {

RunArtifact::RunArtifact(std::string kind, std::string name)
    : kind_(std::move(kind)), name_(std::move(name)) {}

void RunArtifact::setSection(const std::string& key, Json value) {
  sections_.set(key, std::move(value));
}

Json RunArtifact::toJson() const {
  Json out = Json::object();
  out.set("schema", kSchema);
  out.set("kind", kind_);
  out.set("name", name_);
  out.set("spec", spec_);
  out.set("records", records_);
  out.set("metrics", metrics_);
  out.set("cost", cost_);
  for (const auto& [key, value] : sections_.members()) out.set(key, value);
  return out;
}

std::string RunArtifact::toJsonl() const {
  Json header = Json::object();
  header.set("schema", kSchema);
  header.set("kind", kind_);
  header.set("name", name_);
  header.set("spec", spec_);
  std::string out = header.dump() + "\n";
  for (const auto& r : records_.items()) {
    Json line = Json::object();
    line.set("record", r);
    out += line.dump() + "\n";
  }
  Json summary = Json::object();
  summary.set("metrics", metrics_);
  summary.set("cost", cost_);
  for (const auto& [key, value] : sections_.members()) summary.set(key, value);
  out += summary.dump() + "\n";
  return out;
}

void RunArtifact::writeJson(const std::string& path, int indent) const {
  common::writeFile(path, toJson().dump(indent) + "\n");
}

void RunArtifact::writeJsonl(const std::string& path) const {
  common::writeFile(path, toJsonl());
}

}  // namespace fades::obs
