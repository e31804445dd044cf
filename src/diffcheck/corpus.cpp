#include "diffcheck/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file.hpp"
#include "obs/json.hpp"

namespace fades::diffcheck {

using common::ErrorKind;
using common::raise;

std::vector<std::string> listCorpusFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    raise(ErrorKind::InvalidArgument, "corpus directory not found: " + dir);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

CaseSpec loadCase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) raise(ErrorKind::InvalidArgument, "cannot open case file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto j = obs::Json::parse(text.str(), &error);
  if (!j.has_value()) {
    raise(ErrorKind::InvalidArgument, path + ": malformed JSON: " + error);
  }
  try {
    return CaseSpec::fromJson(*j);
  } catch (const common::FadesError& err) {
    raise(ErrorKind::InvalidArgument, path + ": " + err.what());
  }
}

void saveCase(const CaseSpec& c, const std::string& path) {
  common::writeFile(path, c.toJson().dump(2) + "\n");
}

}  // namespace fades::diffcheck
