// Random register + logic design shared by the property, levelizer and
// synthesis suites: 8 inputs, four 4-bit registers, `gates` random XOR/MUX
// gates over the growing net pool, and an 8-bit output. A seed fixes the
// design, so suites that pin a result per seed stay reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rtl/builder.hpp"

namespace fades::test_support {

inline rtl::Builder randomDesign(std::uint64_t seed, unsigned gates) {
  common::Rng rng(seed);
  rtl::Builder b;
  rtl::Bus in = b.input("in", 8);
  std::vector<rtl::NetId> pool = in;
  std::vector<rtl::Register> regs;
  for (unsigned r = 0; r < 4; ++r) {
    regs.push_back(b.makeRegister("q" + std::to_string(r), 4, 0));
    pool.insert(pool.end(), regs.back().q.begin(), regs.back().q.end());
  }
  for (unsigned g = 0; g < gates; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  for (auto& r : regs) {
    rtl::Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  rtl::Bus out;
  for (int k = 0; k < 8; ++k) out.push_back(pool[rng.below(pool.size())]);
  b.output("out", out);
  return b;
}

}  // namespace fades::test_support
