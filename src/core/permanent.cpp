#include "core/permanent.hpp"

#include <set>

#include "common/error.hpp"
#include "synth/fabric.hpp"

namespace fades::core {

using common::ErrorKind;
using common::require;
using common::Rng;
using fpga::CbField;

const char* toString(PermanentFaultModel m) {
  switch (m) {
    case PermanentFaultModel::StuckAt0: return "stuck-at-0";
    case PermanentFaultModel::StuckAt1: return "stuck-at-1";
    case PermanentFaultModel::OpenLine: return "open-line";
    case PermanentFaultModel::StuckOpen: return "stuck-open";
    case PermanentFaultModel::Bridging: return "bridging";
  }
  return "?";
}

std::vector<std::uint32_t> PermanentFaults::targets(Unit unit) const {
  const auto& impl = tool_.implementation();
  std::vector<std::uint32_t> out;
  switch (model_) {
    case PermanentFaultModel::StuckAt0:
    case PermanentFaultModel::StuckAt1:
      for (auto i : impl.lutsInUnit(unit)) {
        if (impl.luts[i].out.valid()) out.push_back(i);
      }
      for (auto i : impl.flopsInUnit(unit)) out.push_back(i | kFlopFlag);
      break;
    case PermanentFaultModel::OpenLine:
    case PermanentFaultModel::StuckOpen:
    case PermanentFaultModel::Bridging:
      for (std::uint32_t i = 0; i < impl.routes.size(); ++i) {
        const auto& r = impl.routes[i];
        if (r.wireNodes.empty()) continue;
        if (unit != Unit::None && r.unit != unit) continue;
        out.push_back(i);
      }
      break;
  }
  require(!out.empty(), ErrorKind::InjectionError,
          std::string("no permanent-fault targets for ") + toString(model_));
  return out;
}

Outcome PermanentFaults::runExperiment(std::uint32_t target, Rng& rng,
                                       double* modeledSeconds) {
  auto& dev = tool_.dev_;
  auto& port = tool_.port_;
  const auto& impl = tool_.implementation();

  port.resetMeter();
  tool_.chargeExperimentBaseline();
  dev.restoreState(tool_.checkpoints_.front());

  // ---- inject (one reconfiguration session, never removed mid-run) -------
  std::vector<std::pair<std::size_t, bool>> restoreBits;
  std::uint16_t originalTable = 0;
  fpga::CbCoord lutCb{};
  bool usedShortPolicy = false;
  bool isLutStuck = false;

  port.beginSession();
  switch (model_) {
    case PermanentFaultModel::StuckAt0:
    case PermanentFaultModel::StuckAt1: {
      const bool v = (model_ == PermanentFaultModel::StuckAt1);
      if (target & kFlopFlag) {
        const auto& site = impl.flops[target & ~kFlopFlag];
        const std::pair<CbField, bool> set[] = {{CbField::SrMode, v},
                                                {CbField::InvLsr, true}};
        port.updateCbFieldsBlind(site.cb, set);
        restoreBits.emplace_back(
            dev.layout().cbFieldBit(site.cb, CbField::InvLsr), false);
        restoreBits.emplace_back(
            dev.layout().cbFieldBit(site.cb, CbField::SrMode), site.init);
      } else {
        const auto& site = impl.luts[target];
        lutCb = site.cb;
        originalTable = site.table;
        isLutStuck = true;
        port.setLutTableBlind(site.cb, v ? 0xFFFF : 0x0000);
      }
      break;
    }
    case PermanentFaultModel::OpenLine:
    case PermanentFaultModel::StuckOpen: {
      // Open one transistor of the routed net: a connection-box switch for
      // open-line, a programmable-matrix switch for stuck-open.
      const auto& route = impl.routes[target];
      const bool wantPm = (model_ == PermanentFaultModel::StuckOpen);
      std::vector<std::size_t> order(route.transistorBits.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      std::size_t chosen = route.transistorBits.size();
      for (auto i : order) {
        const auto meaning = dev.decodeLogicBit(route.transistorBits[i]);
        const bool isPm =
            meaning.kind == fpga::BitMeaning::Kind::PmSwitch;
        if (isPm == wantPm) {
          chosen = i;
          break;
        }
      }
      if (chosen == route.transistorBits.size()) chosen = order[0];
      port.setLogicBit(route.transistorBits[chosen], false);
      restoreBits.emplace_back(route.transistorBits[chosen], true);
      break;
    }
    case PermanentFaultModel::Bridging: {
      // Close a transistor between this net and a NEIGHBOURING USED net;
      // the short resolves as wired-AND (dominant low).
      const auto& route = impl.routes[target];
      const auto& nodes = dev.nodes();
      std::set<std::uint32_t> own(route.wireNodes.begin(),
                                  route.wireNodes.end());
      std::vector<std::uint32_t> order = route.wireNodes;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      bool done = false;
      for (auto w : order) {
        synth::forEachNeighbor(
            dev.layout(), nodes, w,
            [&](std::uint32_t nb, std::size_t bit) {
              if (done || dev.logicBit(bit)) return;
              const auto k = nodes.info(nb).kind;
              if (k != fpga::NodeKind::HSeg && k != fpga::NodeKind::VSeg) {
                return;
              }
              if (!tool_.usedNodes_.count(nb) || own.count(nb)) return;
              dev.setShortPolicy(fpga::ShortPolicy::WiredAnd);
              usedShortPolicy = true;
              port.setLogicBit(bit, true);
              restoreBits.emplace_back(bit, false);
              done = true;
            });
        if (done) break;
      }
      require(done, ErrorKind::InjectionError,
              "no adjacent foreign net to bridge to");
      break;
    }
  }
  port.endSession();  // land the defect before evaluating the fabric
  try {
    dev.settle();
  } catch (const common::FadesError&) {
    // The defect created combinational feedback (a bridge can close a loop
    // through the logic). The cycle-accurate emulator cannot evaluate an
    // oscillating circuit, so restore and report the site as unusable.
    if (isLutStuck) port.setLutTableBlind(lutCb, originalTable);
    if (!restoreBits.empty()) port.setLogicBitsBlind(restoreBits);
    if (usedShortPolicy) dev.setShortPolicy(fpga::ShortPolicy::Error);
    dev.settle();
    common::raise(ErrorKind::InjectionError,
                  "defect creates combinational feedback");
  }

  // ---- observe the whole run ------------------------------------------------
  Observation faulty;
  bool diverged = false;
  while (!diverged && dev.cycle() < tool_.runCycles_) {
    const std::uint64_t w = tool_.outputWord();
    diverged |= (w != tool_.golden_.outputs[faulty.outputs.size()]);
    faulty.outputs.push_back(w);
    dev.step();
  }

  Outcome outcome;
  if (diverged) {
    tool_.captureFinalStateViaPort(faulty, /*chargeOnly=*/true);
    outcome = Outcome::Failure;
  } else {
    faulty.outputs.resize(tool_.runCycles_);
    tool_.captureFinalStateViaPort(faulty, /*chargeOnly=*/false);
    outcome = campaign::classify(tool_.golden_, faulty);
  }

  // ---- restore the configuration for the next experiment -------------------
  port.beginSession();
  if (isLutStuck) port.setLutTableBlind(lutCb, originalTable);
  if (!restoreBits.empty()) port.setLogicBitsBlind(restoreBits);
  port.endSession();
  if (usedShortPolicy) dev.setShortPolicy(fpga::ShortPolicy::Error);
  dev.settle();

  if (modeledSeconds != nullptr) {
    *modeledSeconds =
        tool_.meterSeconds() +
        static_cast<double>(tool_.runCycles_) / tool_.opt_.fpgaClockHz +
        tool_.opt_.hostPerExperimentSeconds;
  }
  return outcome;
}

std::vector<std::uint32_t> PermanentFaults::enumeratePool(
    const CampaignSpec& spec) {
  return spec.targetPool.empty() ? targets(static_cast<Unit>(spec.unit))
                                 : spec.targetPool;
}

campaign::ExperimentOutcome PermanentFaults::runExperimentAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, unsigned /*rerun*/) {
  // Some sites cannot host a given defect (e.g. no foreign net adjacent
  // to bridge to); redraw the target like the paper's tool would.
  for (unsigned attempt = 0;; ++attempt) {
    Rng erng(
        common::streamSeed(spec.seed, std::uint64_t{index} * 97 + attempt));
    const auto target = pool[erng.below(pool.size())];
    campaign::ExperimentOutcome out;
    try {
      out.outcome = runExperiment(target, erng, &out.modeledSeconds);
    } catch (const common::FadesError& err) {
      if (err.kind() != ErrorKind::InjectionError || attempt >= 20) throw;
      continue;
    }
    const auto& meter = tool_.port_.meter();
    out.index = index;
    out.configSeconds = tool_.meterSeconds();
    out.workloadSeconds =
        static_cast<double>(tool_.runCycles_) / tool_.opt_.fpgaClockHz;
    out.hostSeconds = tool_.opt_.hostPerExperimentSeconds;
    out.bytesToDevice = meter.bytesToDevice;
    out.bytesFromDevice = meter.bytesFromDevice;
    out.sessions = meter.sessions;
    return out;
  }
}

}  // namespace fades::core
