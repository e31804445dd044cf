// Technology mapping: cover the gate netlist with 4-input LUTs.
//
// Buffers are folded, constants propagated, and fanout-free cones packed
// greedily into LUTs. The result deliberately destroys the one-to-one
// correspondence between HDL signals and physical resources - internal cone
// nets disappear, exactly the effect the paper's Section 2 describes
// ("elements can be renamed, merged together or removed by optimisations"),
// which is why the fault-location process needs the mapping produced here.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace fades::synth {

using netlist::NetId;
using netlist::Netlist;
using netlist::Unit;

struct MappedLut {
  std::uint16_t table = 0;
  std::array<NetId, 4> leaves{};  // invalid entries beyond leafCount
  unsigned leafCount = 0;
  NetId out{};  // the visible netlist net this LUT produces
  Unit unit = Unit::None;
};

struct MappedDesign {
  std::vector<MappedLut> luts;
  /// Which LUT (index+1; 0 = none) produces a given net.
  std::vector<std::uint32_t> lutOfNet;
  /// Buffer-chain resolution: canonical driver net for every net.
  std::vector<NetId> resolved;
  /// Constant-propagation result: 0, 1, or -1 (not constant), per net.
  std::vector<std::int8_t> constVal;

  NetId resolve(NetId n) const { return resolved[n.value]; }
};

/// Map a validated netlist onto 4-LUTs. Throws on gates that cannot be
/// covered (cannot happen with the IR's max arity of 3).
MappedDesign techmap(const Netlist& netlist);

/// Evaluate a mapped LUT against reference net values (tests).
bool evalMappedLut(const MappedLut& lut,
                   const std::vector<bool>& leafValues);

}  // namespace fades::synth
