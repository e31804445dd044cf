#include "common/parse.hpp"

#include <charconv>
#include <string>

#include "common/error.hpp"

namespace fades::common {

namespace {

/// from_chars over the whole text: no leading space or '+', no sign at all
/// for unsigned types, result_out_of_range instead of wrapping.
template <class T>
bool parseWhole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  return result.ec == std::errc{} && result.ptr == end;
}

}  // namespace

std::uint64_t parseUnsigned(std::string_view text, std::string_view what,
                            std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  require(parseWhole(text, value) && value >= min && value <= max,
          ErrorKind::InvalidArgument,
          std::string(what) + " expects an integer in [" +
              std::to_string(min) + ", " + std::to_string(max) + "], got '" +
              std::string(text) + "'");
  return value;
}

double parseProbability(std::string_view text, std::string_view what) {
  double value = 0.0;
  require(parseWhole(text, value) && value >= 0.0 && value < 1.0,
          ErrorKind::InvalidArgument,
          std::string(what) + " expects a probability in [0, 1), got '" +
              std::string(text) + "'");
  return value;
}

}  // namespace fades::common
