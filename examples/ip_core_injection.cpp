// IP-core fault injection with restricted observability (paper Section 7.3).
//
// SoC integrators often receive an ALREADY IMPLEMENTED core: no HDL model,
// no unit map, no signal names - just a configuration bitstream and the pin
// interface. Model-based injection tools cannot touch such a core, but the
// run-time reconfiguration technique works at the implementation level:
// every used LUT and flip-flop is discoverable from the configuration
// memory itself, and faults are injected by rewriting it.
//
// This example treats the MC8051 implementation as a black box: targets are
// found by scanning the device configuration (not the location map), and
// only the pin-level outputs are observed.
#include <cstdio>
#include <vector>

#include "bits/config_port.hpp"
#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "service/jobspec.hpp"

using namespace fades;

int main() {
  // The "vendor" side: produce a configured core. The integrator only keeps
  // the bitstream and the pad binding of the output port pins.
  service::JobSpec job;  // tool fades, workload bubblesort6
  job.keepRecords = false;
  const auto system = service::buildSystem(job);
  const std::uint64_t cycles = system->runCycles;
  const synth::Implementation& impl = *system->impl;
  const fpga::Bitstream& bitstream = impl.bitstream;
  std::vector<unsigned> outputPads;
  for (const auto& p : impl.pads) {
    if (!p.isInput && (p.port == "p0" || p.port == "p1")) {
      outputPads.push_back(p.pad);
    }
  }

  // ---- Integrator's side starts here: bitstream + pads only --------------
  fpga::Device device(fpga::DeviceSpec::virtex1000Like());
  bits::ConfigPort port(device);
  port.writeFullBitstream(bitstream);

  // Fault location at the implementation level: scan the configuration for
  // used function generators. No netlist, no names.
  const auto& layout = device.layout();
  std::vector<fpga::CbCoord> usedLuts;
  for (std::uint16_t x = 0; x < device.spec().cols; ++x) {
    for (std::uint16_t y = 0; y < device.spec().rows; ++y) {
      const fpga::CbCoord cb{x, y};
      if (device.logicBit(layout.cbFieldBit(cb, fpga::CbField::LutUsed))) {
        usedLuts.push_back(cb);
      }
    }
  }
  std::printf("black-box scan found %zu used LUTs in the bitstream\n",
              usedLuts.size());

  // Golden run observing only the pins.
  auto observe = [&] {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < outputPads.size(); ++i) {
      if (device.padValue(outputPads[i])) w |= 1ULL << i;
    }
    return w;
  };
  std::vector<std::uint64_t> golden;
  const auto initial = device.captureState();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    golden.push_back(observe());
    device.step();
  }

  // Inject pulses into randomly chosen black-box LUTs.
  common::Rng rng(99);
  unsigned failures = 0, silents = 0;
  const unsigned experiments = 60;
  for (unsigned e = 0; e < experiments; ++e) {
    device.restoreState(initial);
    const auto cb = usedLuts[rng.below(usedLuts.size())];
    const auto injectAt = rng.below(cycles);
    const auto duration = 1 + rng.below(10);

    bool diverged = false;
    std::uint16_t original = 0;
    for (std::uint64_t c = 0; c < cycles; ++c) {
      if (c == injectAt) {
        original = port.getLutTable(cb);
        port.setLutTable(cb, static_cast<std::uint16_t>(~original));
      }
      if (c == injectAt + duration) port.setLutTable(cb, original);
      diverged |= (observe() != golden[c]);
      device.step();
    }
    if (injectAt + duration >= cycles) {
      // The fault outlived the run: restore the configuration for the next
      // experiment (state is restored separately).
      port.setLutTable(cb, original);
    }
    failures += diverged;
    silents += !diverged;
  }
  std::printf("pin-level classification over %u pulses: %u failures, %u "
              "silent-or-latent\n",
              experiments, failures, silents);
  std::printf("(with pin-only observability, latent faults are invisible - "
              "exactly the Section 7.3 trade-off)\n");
  return 0;
}
