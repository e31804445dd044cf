#include "sim/engine.hpp"

#include "common/error.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace fades::sim {

const char* toString(EngineKind kind) {
  switch (kind) {
    case EngineKind::EventDriven: return "event";
    case EngineKind::Compiled: return "compiled";
  }
  return "?";
}

std::unique_ptr<Engine> makeEngine(EngineKind kind,
                                   const netlist::Netlist& netlist) {
  switch (kind) {
    case EngineKind::EventDriven:
      return std::make_unique<Simulator>(netlist);
    case EngineKind::Compiled:
      return std::make_unique<CompiledSimulator>(netlist);
  }
  common::raise(common::ErrorKind::InvalidArgument, "unknown engine kind");
}

}  // namespace fades::sim
