#include "synth/instrument.hpp"

#include <map>
#include <set>
#include <string>

#include "common/error.hpp"

namespace fades::synth {

using common::ErrorKind;
using common::raise;
using common::require;
using netlist::FlopId;
using netlist::GateId;
using netlist::GateOp;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;
using netlist::Unit;

namespace {

/// Shared target validation for both instrumentation passes: a duplicate
/// target would chain two saboteurs (or two masks) onto one site, so one
/// selector value / mask bit no longer maps to one injection site. `nameOf`
/// renders the offending target for the error message.
template <typename Id, typename NameOf>
void requireUniqueTargets(const std::vector<Id>& targets, const char* what,
                          NameOf nameOf) {
  std::set<std::uint32_t> seen;
  for (Id t : targets) {
    if (!seen.insert(t.value).second) {
      raise(ErrorKind::ConfigError,
            std::string("duplicate ") + what + " '" + nameOf(t) + "'");
    }
  }
}

}  // namespace

InstrumentedModel instrumentWithSaboteurs(
    const Netlist& source, const std::vector<NetId>& targets) {
  require(!targets.empty(), ErrorKind::InvalidArgument,
          "no saboteur targets");
  InstrumentedModel out;
  out.netlist = source;  // instrumentation is additive
  Netlist& nl = out.netlist;

  for (NetId t : targets) {
    require(t.valid() && t.value < nl.netCount(), ErrorKind::InvalidArgument,
            "saboteur target net out of range");
    require(nl.driverOf(t).kind != Netlist::DriverKind::Input,
            ErrorKind::InvalidArgument,
            "saboteur targets must not be input-port nets");
  }
  requireUniqueTargets(targets, "saboteur target net", [&](NetId t) {
    return nl.netName(t).empty() ? "net#" + std::to_string(t.value)
                                 : nl.netName(t);
  });

  // 1. Collect the ORIGINAL consumers of every target before any saboteur
  //    logic exists (the saboteurs themselves read the unmodified nets).
  struct Slot {
    enum class Kind : std::uint8_t { GateIn, FlopD, RamPin, PortOut } kind;
    std::uint32_t a = 0;  // gate/flop/ram/port index
    std::uint32_t b = 0;  // gate pin / port bit
  };
  std::map<std::uint32_t, std::vector<Slot>> slots;
  for (NetId t : targets) slots[t.value];  // mark
  auto interested = [&](NetId n) { return slots.count(n.value) != 0; };

  for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
    const auto& gate = nl.gates()[g];
    for (unsigned k = 0; k < netlist::arity(gate.op); ++k) {
      if (interested(gate.in[k])) {
        slots[gate.in[k].value].push_back(
            Slot{Slot::Kind::GateIn, g, k});
      }
    }
  }
  for (std::uint32_t f = 0; f < nl.flopCount(); ++f) {
    if (interested(nl.flops()[f].d)) {
      slots[nl.flops()[f].d.value].push_back(Slot{Slot::Kind::FlopD, f, 0});
    }
  }
  for (std::uint32_t r = 0; r < nl.ramCount(); ++r) {
    const auto& ram = nl.rams()[r];
    auto check = [&](NetId n) {
      if (interested(n)) slots[n.value].push_back(Slot{Slot::Kind::RamPin, r, 0});
    };
    for (NetId n : ram.addr) check(n);
    for (NetId n : ram.dataIn) check(n);
    if (ram.writeEnable.valid()) check(ram.writeEnable);
  }
  for (std::uint32_t p = 0; p < nl.outputs().size(); ++p) {
    const auto& port = nl.outputs()[p];
    for (std::uint32_t b = 0; b < port.nets.size(); ++b) {
      if (interested(port.nets[b])) {
        slots[port.nets[b].value].push_back(Slot{Slot::Kind::PortOut, p, b});
      }
    }
  }

  // 2. Injection control ports. One target needs no selection logic at all:
  //    the lone saboteur is driven straight by `sab_enable`, and no
  //    `sab_select` port is emitted.
  out.selectBits = 0;
  if (targets.size() > 1) {
    out.selectBits = 1;
    while ((std::size_t{1} << out.selectBits) < targets.size()) {
      ++out.selectBits;
    }
  }
  const NetId enable = nl.addNet("sab_enable");
  nl.addInputPort("sab_enable", {enable});
  std::vector<NetId> select;
  for (unsigned b = 0; b < out.selectBits; ++b) {
    select.push_back(nl.addNet("sab_select[" + std::to_string(b) + "]"));
  }
  if (!select.empty()) nl.addInputPort("sab_select", select);

  // 3. Splice one inverting saboteur per target and rewire its consumers.
  const std::size_t gatesBefore = nl.gateCount();
  for (std::uint32_t idx = 0; idx < targets.size(); ++idx) {
    const NetId t = targets[idx];
    // sel == idx; with a single target the enable pin is the whole control.
    NetId ctl = enable;
    if (out.selectBits > 0) {
      NetId match{};
      for (unsigned b = 0; b < out.selectBits; ++b) {
        NetId bit = select[b];
        if (((idx >> b) & 1u) == 0) {
          const GateId inv = nl.addGate(GateOp::Not, bit);
          bit = nl.gate(inv).out;
        }
        if (!match.valid()) {
          match = bit;
        } else {
          const GateId andG = nl.addGate(GateOp::And, match, bit);
          match = nl.gate(andG).out;
        }
      }
      const GateId andCtl = nl.addGate(GateOp::And, enable, match);
      ctl = nl.gate(andCtl).out;
    }
    const GateId sab = nl.addGate(GateOp::Xor, t, ctl);
    const NetId sabOut = nl.gate(sab).out;
    nl.setNetName(sabOut, nl.netName(t).empty()
                              ? "sab" + std::to_string(idx)
                              : nl.netName(t) + ".sab");
    out.selectors.emplace_back(t, idx);

    for (const Slot& s : slots[t.value]) {
      switch (s.kind) {
        case Slot::Kind::GateIn:
          nl.replaceGateInput(GateId{s.a}, s.b, sabOut);
          break;
        case Slot::Kind::FlopD:
          nl.replaceFlopInput(FlopId{s.a}, sabOut);
          break;
        case Slot::Kind::RamPin:
          nl.replaceRamInput(RamId{s.a}, t, sabOut);
          break;
        case Slot::Kind::PortOut:
          nl.replaceOutputPortNet(s.a, s.b, sabOut);
          break;
      }
    }
  }
  out.saboteurGates = nl.gateCount() - gatesBefore;
  nl.validate();
  return out;
}

AutonomousModel instrumentAutonomous(const Netlist& source,
                                     const std::vector<FlopId>& flops) {
  AutonomousModel out;
  out.netlist = source;  // instrumentation is additive
  Netlist& nl = out.netlist;
  const auto sourceFlops = static_cast<std::uint32_t>(nl.flopCount());
  const auto sourceRams = static_cast<std::uint32_t>(nl.ramCount());
  require(sourceFlops > 0, ErrorKind::InvalidArgument,
          "autonomous instrumentation needs at least one flip-flop");

  out.chain = flops;
  if (out.chain.empty()) {
    for (std::uint32_t f = 0; f < sourceFlops; ++f) {
      out.chain.push_back(FlopId{f});
    }
  }
  for (FlopId f : out.chain) {
    require(f.valid() && f.value < sourceFlops, ErrorKind::InvalidArgument,
            "autonomous mask target flop out of range");
  }
  requireUniqueTargets(out.chain, "autonomous mask target flop", [&](FlopId f) {
    const std::string& name = nl.flops()[f.value].name;
    return name.empty() ? "flop#" + std::to_string(f.value) : name;
  });
  out.chainBits = static_cast<unsigned>(out.chain.size());

  const std::size_t gatesBefore = nl.gateCount();
  const std::size_t flopsBefore = nl.flopCount();

  auto controlPort = [&](const char* name) {
    require(nl.findInput(name) == nullptr && nl.findOutput(name) == nullptr,
            ErrorKind::ConfigError,
            std::string("source model already has a port named '") + name +
                "'");
    const NetId n = nl.addNet(name);
    nl.addInputPort(name, {n});
    return n;
  };
  const NetId scanIn = controlPort("am_scan_in");
  const NetId shift = controlPort("am_shift");
  const NetId inject = controlPort("am_inject");
  const NetId capture = controlPort("am_capture");
  const NetId restore = controlPort("am_restore");

  // 1. Injection-mask registers, threaded into a scan chain: while
  //    `am_shift` is high each mask takes the previous chain bit, otherwise
  //    it holds. Masks reset to 0, so the unloaded chain is inert.
  std::vector<NetId> maskQ(sourceFlops, NetId{});
  NetId prev = scanIn;
  for (FlopId f : out.chain) {
    const std::string base = nl.flops()[f.value].name.empty()
                                 ? "flop" + std::to_string(f.value)
                                 : nl.flops()[f.value].name;
    const NetId q = nl.addNet(base + ".mask");
    const GateId mux = nl.addGate(GateOp::Mux, q, prev, shift);
    nl.addFlop(nl.gate(mux).out, false, Unit::None, base + ".mask", q);
    maskQ[f.value] = q;
    prev = q;
  }
  nl.addOutputPort("am_scan_out", {prev});

  // 2. Per-flop injection XOR, shadow golden copy and single-cycle restore:
  //
  //      d_eff     = am_restore ? shadow_q : d XOR (am_inject AND mask_q)
  //      shadow_d  = am_capture ? d_eff : shadow_q
  //
  //    While capturing, the shadow's next state equals the main flop's, so
  //    it mirrors the golden run cycle-for-cycle; dropping `am_capture`
  //    freezes the golden state, and one cycle of `am_restore` copies it
  //    back into every main flop at once. Every flop gets a shadow (restore
  //    must be complete) even when only a subset carries a mask.
  for (std::uint32_t f = 0; f < sourceFlops; ++f) {
    const auto& flop = nl.flops()[f];
    const std::string base =
        flop.name.empty() ? "flop" + std::to_string(f) : flop.name;
    const NetId shadowQ = nl.addNet(base + ".shadow");
    NetId effD = flop.d;
    if (maskQ[f].valid()) {
      const GateId arm = nl.addGate(GateOp::And, inject, maskQ[f]);
      const GateId flip = nl.addGate(GateOp::Xor, effD, nl.gate(arm).out);
      effD = nl.gate(flip).out;
    }
    const GateId rmux = nl.addGate(GateOp::Mux, effD, shadowQ, restore);
    const NetId dEff = nl.gate(rmux).out;
    nl.replaceFlopInput(FlopId{f}, dEff);
    const GateId smux = nl.addGate(GateOp::Mux, shadowQ, dEff, capture);
    nl.addFlop(nl.gate(smux).out, flop.init, Unit::None, base + ".shadow",
               shadowQ);
  }

  // 3. Shadow memory blocks: same address/data/write stream as the source
  //    block, but writes are gated by `am_capture` - while capturing the
  //    shadow mirrors the golden contents, afterwards it holds them for the
  //    restore sweep. ROMs are immutable and need no shadow.
  for (std::uint32_t r = 0; r < sourceRams; ++r) {
    const auto& ram = nl.rams()[r];
    if (ram.isRom()) continue;
    const GateId weGate = nl.addGate(GateOp::And, ram.writeEnable, capture);
    // Before addRam: it may reallocate rams() and leave `ram` dangling.
    out.shadowRamBits += ram.depth() * ram.dataBits;
    nl.addRam(ram.addrBits, ram.dataBits, ram.addr, ram.dataIn,
              nl.gate(weGate).out, ram.init, Unit::None,
              ram.name + ".shadow");
  }

  out.addedGates = nl.gateCount() - gatesBefore;
  out.addedFlops = nl.flopCount() - flopsBefore;
  nl.validate();
  return out;
}

}  // namespace fades::synth
