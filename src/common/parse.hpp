// Strict command-line number parsing, shared by every CLI. strtoul alone
// turns "abc" into 0, "-1" into ULONG_MAX and "12abc" into 12, and a cast
// then truncates an out-of-range value. These accept exactly the documented
// form and raise InvalidArgument naming the argument and the value
// otherwise; each tool turns that into its own usage text and exit code 2.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace fades::common {

/// Digits only (no sign, space or suffix), no overflow, within [min, max].
std::uint64_t parseUnsigned(std::string_view text, std::string_view what,
                            std::uint64_t min, std::uint64_t max);

/// parseUnsigned into T; `max` defaults to T's own maximum.
template <class T>
T parseUnsigned(std::string_view text, std::string_view what,
                std::type_identity_t<T> min = 0,
                std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  return static_cast<T>(parseUnsigned(text, what, std::uint64_t(min),
                                      std::uint64_t(max)));
}

/// One decimal number, nothing else, in [0, 1).
double parseProbability(std::string_view text, std::string_view what);

}  // namespace fades::common
