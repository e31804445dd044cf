// Synthesis and implementation driver: netlist -> configured FPGA.
//
// Produces (a) the bitstream ("configuration file" in the paper's Figure 1)
// and (b) the location map relating HDL model elements - registers, memory
// words, combinational signals, routed lines - to physical device resources.
// The location map is the output of the paper's *fault location process*
// (Section 2): fault injectors select targets exclusively through it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "synth/techmap.hpp"

namespace fades::synth {

using netlist::FlopId;
using netlist::RamId;

struct SynthOptions {
  std::uint64_t seed = 1;
  unsigned placementSwapMultiplier = 24;
  unsigned maxRouteIterations = 120;
};

/// A LUT site: one visible combinational signal and the CB that computes it.
struct LutSite {
  fpga::CbCoord cb;
  Unit unit = Unit::None;
  std::string signalName;  // netlist name of the produced net (may be empty)
  NetId out{};
  std::uint16_t table = 0;
  unsigned leafCount = 0;
};

/// A flip-flop site: one HDL register bit and the CB holding it.
struct FlopSite {
  fpga::CbCoord cb;
  Unit unit = Unit::None;
  std::string name;
  FlopId flop{};
  bool init = false;
  /// True when the FF's data arrives through the routed BYP pin (so its
  /// input inverter mux is a valid pulse-fault target, paper Figure 6);
  /// false when the D input comes from the co-located LUT.
  bool bypassInput = false;
};

/// A memory: HDL RAM/ROM mapped onto one or more memory-block bit slices.
struct RamSite {
  std::string name;
  Unit unit = Unit::None;
  RamId ram{};
  unsigned addrBits = 0;
  unsigned dataBits = 0;
  bool isRom = false;
  struct Slice {
    unsigned block = 0;
    unsigned bitLo = 0;   // first netlist data bit covered
    unsigned width = 0;   // power of two
  };
  std::vector<Slice> slices;

  /// Physical (block, contentBit) address of data bit `bit` of row `row`.
  std::pair<unsigned, unsigned> bitAddress(std::size_t row,
                                           unsigned bit) const;
};

struct PadBinding {
  std::string port;
  unsigned bitIndex = 0;
  unsigned pad = 0;
  bool isInput = false;
};

/// One routed physical net.
struct NetRouteInfo {
  std::string signalName;  // source net name
  NetId sourceNet{};
  Unit unit = Unit::None;
  bool sequentialSource = false;  // driven by a flip-flop
  std::uint32_t sourceNode = 0;
  std::vector<std::uint32_t> sinkNodes;
  std::vector<std::uint32_t> wireNodes;       // segments along the tree
  std::vector<std::size_t> transistorBits;    // ON config bits of this route
  /// Adjacent node pairs of the routed tree, parallel to transistorBits
  /// (needed by the reroute delay injector to open and detour one hop).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edgeNodes;
};

struct ImplementationStats {
  unsigned luts = 0;
  unsigned flops = 0;
  unsigned memBlocks = 0;
  unsigned pads = 0;
  unsigned routedNets = 0;
  std::size_t wireSegments = 0;
  std::size_t configBits = 0;
  unsigned routeIterations = 0;
};

class Implementation {
 public:
  fpga::DeviceSpec spec;
  fpga::Bitstream bitstream;
  std::vector<LutSite> luts;
  std::vector<FlopSite> flops;
  std::vector<RamSite> rams;
  std::vector<PadBinding> pads;
  std::vector<NetRouteInfo> routes;
  ImplementationStats stats;

  // --- location-map queries (the fault-location process interface) -------
  const FlopSite* findFlop(const std::string& name) const;
  std::vector<std::uint32_t> flopsInUnit(Unit unit) const;   // indices
  std::vector<std::uint32_t> lutsInUnit(Unit unit) const;    // indices
  std::vector<std::uint32_t> routesInUnit(Unit unit, bool sequential) const;
  const RamSite* findRam(const std::string& name) const;
  const PadBinding* findPad(const std::string& port, unsigned bit) const;
  std::optional<std::uint32_t> routeOfNet(NetId source) const;
};

/// Synthesize, map, pack, place, route and generate the bitstream.
Implementation implement(const netlist::Netlist& netlist,
                         const fpga::DeviceSpec& spec,
                         const SynthOptions& options = {});

/// Testbench-style harness binding a configured device to the HDL port
/// names, mirroring sim::Simulator's interface so campaigns can drive the
/// emulated and the simulated model identically.
class EmulatedSystem {
 public:
  EmulatedSystem(fpga::Device& device, const Implementation& impl);

  void setInput(const std::string& port, std::uint64_t value);
  std::uint64_t portValue(const std::string& port) const;
  void step() { dev_.step(); }
  std::uint64_t cycle() const { return dev_.cycle(); }

  fpga::Device& device() { return dev_; }
  const Implementation& implementation() const { return impl_; }

 private:
  fpga::Device& dev_;
  const Implementation& impl_;
};

}  // namespace fades::synth
