#include "diffcheck/case_spec.hpp"

#include <cctype>

#include "common/error.hpp"

namespace fades::diffcheck {

using common::ErrorKind;
using common::raise;
using common::require;
using obs::Json;

const char* toString(DesignKind k) {
  switch (k) {
    case DesignKind::Rtl: return "rtl";
    case DesignKind::Mc8051: return "mc8051";
  }
  return "?";
}

DesignKind designKindFromString(const std::string& text) {
  if (text == "rtl") return DesignKind::Rtl;
  if (text == "mc8051") return DesignKind::Mc8051;
  raise(ErrorKind::InvalidArgument, "unknown design kind '" + text + "'");
}

campaign::FaultModel faultModelFromString(const std::string& text) {
  using campaign::FaultModel;
  for (const auto m : {FaultModel::BitFlip, FaultModel::Pulse,
                       FaultModel::Delay, FaultModel::Indetermination}) {
    if (text == campaign::toString(m)) return m;
  }
  raise(ErrorKind::InvalidArgument, "unknown fault model '" + text + "'");
}

campaign::TargetClass targetClassFromString(const std::string& text) {
  using campaign::TargetClass;
  for (const auto t :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit,
        TargetClass::CombinationalLut, TargetClass::CbInputLine,
        TargetClass::SequentialLine, TargetClass::CombinationalLine}) {
    if (text == campaign::toString(t)) return t;
  }
  raise(ErrorKind::InvalidArgument, "unknown target class '" + text + "'");
}

unsigned CaseSpec::instructionCount() const {
  unsigned n = 0;
  for (const auto& line : program) {
    // A line counts as an instruction when something follows the optional
    // label and it is not a directive or a pure comment.
    std::string rest = line;
    if (const auto colon = rest.find(':'); colon != std::string::npos) {
      rest = rest.substr(colon + 1);
    }
    std::size_t i = 0;
    while (i < rest.size() && std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    if (i >= rest.size() || rest[i] == ';' || rest[i] == '.') continue;
    ++n;
  }
  return n;
}

namespace {

const Json& member(const Json& j, const char* key) {
  const Json* m = j.find(key);
  require(m != nullptr, ErrorKind::InvalidArgument,
          std::string("case spec missing field '") + key + "'");
  return *m;
}

std::uint64_t memberU64(const Json& j, const char* key) {
  member(j, key);  // raises when the field is missing
  std::uint64_t value = 0;
  require(obs::readU64(j, key, value), ErrorKind::InvalidArgument,
          std::string("case spec field '") + key +
              "' must be a non-negative integer");
  return value;
}

std::string memberStr(const Json& j, const char* key) {
  member(j, key);  // raises when the field is missing
  std::string value;
  require(obs::readString(j, key, value), ErrorKind::InvalidArgument,
          std::string("case spec field '") + key + "' must be a string");
  return value;
}

}  // namespace

Json CaseSpec::toJson() const {
  Json j = Json::object();
  j.set("schema", Json(std::string(kSchema)));
  j.set("name", Json(name));
  Json design = Json::object();
  design.set("kind", Json(std::string(toString(kind))));
  if (kind == DesignKind::Rtl) {
    design.set("seed", Json(rtl.seed));
    design.set("regs", Json(rtl.regs));
    design.set("reg_width", Json(rtl.regWidth));
    design.set("gates", Json(rtl.gates));
    design.set("with_ram", Json(rtl.withRam));
    design.set("named_signals", Json(rtl.namedSignals));
  } else {
    Json lines = Json::array();
    for (const auto& line : program) lines.push(Json(line));
    design.set("program", lines);
  }
  j.set("design", design);
  j.set("run_cycles", Json(runCycles));
  Json inj = Json::object();
  inj.set("model", Json(std::string(campaign::toString(inject.model))));
  inj.set("targets", Json(std::string(campaign::toString(inject.targets))));
  inj.set("unit", Json(static_cast<std::int64_t>(inject.unit)));
  Json band = Json::object();
  band.set("label", Json(inject.band.label));
  band.set("min_cycles", Json(inject.band.minCycles));
  band.set("max_cycles", Json(inject.band.maxCycles));
  inj.set("band", band);
  inj.set("experiments", Json(static_cast<std::uint64_t>(inject.experiments)));
  inj.set("seed", Json(inject.seed));
  j.set("inject", inj);
  return j;
}

CaseSpec CaseSpec::fromJson(const Json& j) {
  require(j.isObject(), ErrorKind::InvalidArgument,
          "case spec must be a JSON object");
  require(memberStr(j, "schema") == kSchema, ErrorKind::InvalidArgument,
          "case spec schema mismatch (want " + std::string(kSchema) + ")");
  CaseSpec c;
  c.name = memberStr(j, "name");
  const Json& design = member(j, "design");
  c.kind = designKindFromString(memberStr(design, "kind"));
  if (c.kind == DesignKind::Rtl) {
    c.rtl.seed = memberU64(design, "seed");
    c.rtl.regs = static_cast<unsigned>(memberU64(design, "regs"));
    c.rtl.regWidth = static_cast<unsigned>(memberU64(design, "reg_width"));
    c.rtl.gates = static_cast<unsigned>(memberU64(design, "gates"));
    c.rtl.withRam = member(design, "with_ram").asBool();
    c.rtl.namedSignals =
        static_cast<unsigned>(memberU64(design, "named_signals"));
    require(c.rtl.regs >= 1 && c.rtl.regWidth >= 1, ErrorKind::InvalidArgument,
            "rtl case needs regs >= 1 and reg_width >= 1");
  } else {
    const Json& lines = member(design, "program");
    require(lines.isArray() && lines.size() > 0, ErrorKind::InvalidArgument,
            "mc8051 case needs a non-empty program array");
    for (const auto& line : lines.items()) {
      require(line.isString(), ErrorKind::InvalidArgument,
              "program lines must be strings");
      c.program.push_back(line.asString());
    }
  }
  c.runCycles = memberU64(j, "run_cycles");
  require(c.runCycles >= 2, ErrorKind::InvalidArgument,
          "run_cycles must be >= 2");
  const Json& inj = member(j, "inject");
  c.inject.model = faultModelFromString(memberStr(inj, "model"));
  c.inject.targets = targetClassFromString(memberStr(inj, "targets"));
  c.inject.unit = static_cast<int>(memberU64(inj, "unit"));
  const Json& band = member(inj, "band");
  c.inject.band.label = memberStr(band, "label");
  c.inject.band.minCycles = member(band, "min_cycles").asNumber();
  c.inject.band.maxCycles = member(band, "max_cycles").asNumber();
  require(c.inject.band.minCycles >= 0 &&
              c.inject.band.maxCycles >= c.inject.band.minCycles,
          ErrorKind::InvalidArgument, "malformed duration band");
  c.inject.experiments = static_cast<unsigned>(memberU64(inj, "experiments"));
  require(c.inject.experiments >= 1, ErrorKind::InvalidArgument,
          "inject.experiments must be >= 1");
  c.inject.seed = memberU64(inj, "seed");
  return c;
}

std::string CaseSpec::describe() const {
  std::string s = name + " [" + toString(kind) + "] ";
  if (kind == DesignKind::Rtl) {
    s += "seed=" + std::to_string(rtl.seed) +
         " regs=" + std::to_string(rtl.regs) + "x" +
         std::to_string(rtl.regWidth) + " gates=" + std::to_string(rtl.gates) +
         (rtl.withRam ? " +ram" : "");
  } else {
    s += std::to_string(instructionCount()) + " instructions";
  }
  s += " cycles=" + std::to_string(runCycles) + " " +
       campaign::toString(inject.model) + "/" +
       campaign::toString(inject.targets) + " x" +
       std::to_string(inject.experiments) + " seed=" +
       std::to_string(inject.seed) + " band=" + inject.band.label;
  return s;
}

}  // namespace fades::diffcheck
