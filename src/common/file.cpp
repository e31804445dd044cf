#include "common/file.hpp"

#include <cstdio>
#include <memory>

#include "common/error.hpp"

namespace fades::common {

void writeFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(tmp.c_str(), "wb"), &std::fclose);
    require(f != nullptr, ErrorKind::InvalidArgument,
            "cannot open '" + tmp + "' for writing");
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) == bytes.size() &&
        std::fflush(f.get()) == 0;
    if (!ok) {
      f.reset();
      std::remove(tmp.c_str());
      raise(ErrorKind::InvalidArgument, "short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    raise(ErrorKind::InvalidArgument,
          "cannot rename '" + tmp + "' to '" + path + "'");
  }
}

}  // namespace fades::common
