// Reference figures of each workload's fades.run/1 artifact at the default
// seed. They were taken from the artifact `campaign_8051` writes for the
// same spec (see README.md for the commands), so a matching digest shows the
// benchmark measures the program users run. A change that alters a
// campaign's outcomes or modeled cost has to update them, and say why.
#pragma once

#include <cstdint>
#include <string_view>

#include "check.hpp"

namespace campaign_bench {

inline constexpr std::uint64_t kPinnedSeed = 2006;

inline constexpr Pin kPins[] = {
    {"fades-pulse-lut", "1d99eb82836cbdc7", 23, 5, 172, 57.94249028571443},
    {"fades-bitflip-mem-x2", "24508c4fd8c85e02", 23, 371, 6,
     79.02150171428615},
    {"vfit-compiled-records", "6409dc2df7f521ff", 2941, 3940, 3119,
     72492.26080000069},
};

inline const Pin* findPin(std::string_view workload) {
  for (const Pin& p : kPins) {
    if (workload == p.workload) return &p;
  }
  return nullptr;
}

}  // namespace campaign_bench
