// Cycle-accurate instruction-set simulator for the MC8051 subset.
//
// Functional reference model used to validate the RTL core: it executes the
// same programs with identical architectural semantics AND identical cycle
// counts (the RTL control FSM's state sequence is mirrored here), so traces
// can be compared at any cycle boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "mc8051/isa.hpp"

namespace fades::mc8051 {

/// One golden-run cycle: the PC of the instruction occupying the core on
/// that cycle and its opcode byte. Produced by Iss::tracePcPerCycle.
struct PcSample {
  std::uint16_t pc = 0;
  std::uint8_t opcode = 0;
};

class Iss {
 public:
  explicit Iss(std::vector<std::uint8_t> program);

  /// Reset to power-on state (PC=0, SP=7, IRAM/SFRs cleared).
  void reset();

  /// Execute one instruction; returns the number of clock cycles the RTL
  /// core spends on it.
  unsigned stepInstruction();

  /// Run whole instructions while the total cycle count stays <= cycles.
  void runCycles(std::uint64_t cycles);

  /// Golden-run PC attribution: reset, execute at least `cycles` cycles and
  /// return one sample per cycle - the PC and opcode of the instruction in
  /// flight on that cycle. Because the ISS mirrors the RTL FSM's cycle
  /// counts, sample[c] names the instruction the core is executing when a
  /// fault lands at cycle c. Leaves the simulator reset afterwards.
  std::vector<PcSample> tracePcPerCycle(std::uint64_t cycles);

  std::uint64_t cycleCount() const { return cycles_; }

  // --- architectural state -------------------------------------------------
  std::uint16_t pc() const { return pc_; }
  std::uint8_t acc() const { return acc_; }
  std::uint8_t b() const { return b_; }
  std::uint8_t sp() const { return sp_; }
  std::uint8_t psw() const;  // includes the computed parity bit
  std::uint8_t p0() const { return p0_; }
  std::uint8_t p1() const { return p1_; }
  std::uint8_t iram(std::uint8_t addr) const { return iram_[addr & 0x7F]; }
  std::uint8_t reg(unsigned n) const;  // banked R0..R7

  bool carry() const { return cy_; }

 private:
  std::uint8_t fetch();
  std::uint8_t readDirect(std::uint8_t addr) const;
  void writeDirect(std::uint8_t addr, std::uint8_t v);
  std::uint8_t regBankBase() const { return static_cast<std::uint8_t>(((pswBits_ >> 3) & 3) * 8); }
  void addToAcc(std::uint8_t operand, bool withCarry, bool subtract);

  std::vector<std::uint8_t> rom_;
  std::uint8_t iram_[128] = {};
  std::uint16_t pc_ = 0;
  std::uint8_t acc_ = 0, b_ = 0, sp_ = 7;
  std::uint8_t dpl_ = 0, dph_ = 0, p0_ = 0, p1_ = 0;
  std::uint8_t pswBits_ = 0;  // F0, RS1, RS0 (and storage for OV/AC)
  bool cy_ = false, ac_ = false, ov_ = false;
  std::uint64_t cycles_ = 0;
};

}  // namespace fades::mc8051
