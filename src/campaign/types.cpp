#include "campaign/types.hpp"

namespace fades::campaign {

const char* toString(FaultModel m) {
  switch (m) {
    case FaultModel::BitFlip: return "bit-flip";
    case FaultModel::Pulse: return "pulse";
    case FaultModel::Delay: return "delay";
    case FaultModel::Indetermination: return "indetermination";
  }
  return "?";
}

const char* toString(TargetClass t) {
  switch (t) {
    case TargetClass::SequentialFF: return "FFs";
    case TargetClass::MemoryBlockBit: return "memory blocks";
    case TargetClass::CombinationalLut: return "LUTs";
    case TargetClass::CbInputLine: return "CB inputs";
    case TargetClass::SequentialLine: return "sequential lines";
    case TargetClass::CombinationalLine: return "combinational lines";
  }
  return "?";
}

bool faultModelFromString(std::string_view text, FaultModel& out) {
  for (const FaultModel m : {FaultModel::BitFlip, FaultModel::Pulse,
                             FaultModel::Delay, FaultModel::Indetermination}) {
    if (text == toString(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

bool targetClassFromString(std::string_view text, TargetClass& out) {
  for (const TargetClass t :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit,
        TargetClass::CombinationalLut, TargetClass::CbInputLine,
        TargetClass::SequentialLine, TargetClass::CombinationalLine}) {
    if (text == toString(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Silent: return "silent";
    case Outcome::Latent: return "latent";
    case Outcome::Failure: return "failure";
  }
  return "?";
}

bool outcomeFromString(std::string_view text, Outcome& out) {
  for (const Outcome o : {Outcome::Silent, Outcome::Latent, Outcome::Failure}) {
    if (text == toString(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

bool errorKindFromString(std::string_view text, common::ErrorKind& out) {
  using common::ErrorKind;
  for (const ErrorKind k :
       {ErrorKind::InvalidArgument, ErrorKind::NetlistError,
        ErrorKind::SynthesisError, ErrorKind::RoutingError,
        ErrorKind::ConfigError, ErrorKind::CapacityError,
        ErrorKind::WorkloadError, ErrorKind::InjectionError,
        ErrorKind::LinkError}) {
    if (text == common::toString(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

Outcome classify(const Observation& golden, const Observation& faulty) {
  // Failure: the traces present different outputs (paper Section 5).
  if (golden.outputs != faulty.outputs) return Outcome::Failure;
  // Latent: same outputs but a different final state.
  if (golden.finalFlops != faulty.finalFlops ||
      golden.finalMemory != faulty.finalMemory) {
    return Outcome::Latent;
  }
  return Outcome::Silent;
}

common::Rng drawExperiment(const CampaignSpec& spec,
                           std::span<const std::uint32_t> pool,
                           std::uint64_t runCycles, std::uint64_t index,
                           unsigned attempt, ExperimentDraw& out) {
  common::Rng rng(
      common::streamSeed(spec.seed, experimentStream(index, attempt)));
  out.target = pool[rng.below(pool.size())];
  out.injectCycle = rng.below(runCycles);
  out.duration = spec.band.minCycles +
                 rng.uniform01() * (spec.band.maxCycles - spec.band.minCycles);
  return rng;
}

std::uint64_t activeWindow(double duration, std::uint64_t injectCycle,
                           std::uint64_t runCycles, common::Rng& rng) {
  const std::uint64_t cycles =
      duration < 1.0 ? (rng.uniform01() < duration ? 1 : 0)
                     : static_cast<std::uint64_t>(duration + 0.5);
  return std::min(cycles, runCycles - injectCycle);
}

}  // namespace fades::campaign
