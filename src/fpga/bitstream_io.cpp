#include "fpga/bitstream_io.hpp"

#include <array>
#include <cstdio>
#include <memory>

#include "common/error.hpp"
#include "common/file.hpp"

namespace fades::fpga {

using common::ErrorKind;
using common::raise;
using common::require;

namespace {

constexpr std::uint32_t kMagic = 0xFADE5B17;
constexpr std::uint32_t kVersion = 1;

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Reader {
  const std::vector<std::uint8_t>& b;
  std::size_t pos = 0;

  // Subtraction-based bounds checks (pos is always <= b.size(), so
  // b.size() - pos cannot wrap), and every failure names the byte offset
  // so a corrupt file can be diagnosed from the message alone.
  std::size_t remaining() const { return b.size() - pos; }
  void need(std::size_t n, const char* what) {
    if (remaining() < n) {
      raise(ErrorKind::ConfigError,
            std::string("truncated bitstream container: need ") +
                std::to_string(n) + " byte(s) for " + what +
                " at byte offset " + std::to_string(pos) + ", have " +
                std::to_string(remaining()));
    }
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[pos++]} << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[pos++]} << (8 * i);
    return v;
  }
};

const std::array<std::uint32_t, 256>& crcTable() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = crcTable()[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> serializeBitstream(const DeviceSpec& spec,
                                             const Bitstream& bs) {
  std::vector<std::uint8_t> out;
  putU32(out, kMagic);
  putU32(out, kVersion);
  putU32(out, spec.rows);
  putU32(out, spec.cols);
  putU32(out, spec.tracks);
  putU32(out, spec.memBlocks);
  putU32(out, spec.memBlockBits);
  putU64(out, bs.logic.size());
  putU64(out, bs.bram.size());
  const auto logicBytes = bs.logic.exportBytes(0, bs.logic.size());
  const auto bramBytes = bs.bram.exportBytes(0, bs.bram.size());
  const std::size_t payloadStart = out.size();
  out.insert(out.end(), logicBytes.begin(), logicBytes.end());
  out.insert(out.end(), bramBytes.begin(), bramBytes.end());
  putU32(out, crc32(out.data() + payloadStart, out.size() - payloadStart));
  return out;
}

Bitstream deserializeBitstream(const DeviceSpec& expected,
                               std::vector<std::uint8_t> const& bytes) {
  Reader r{bytes};
  require(r.u32("magic") == kMagic, ErrorKind::ConfigError,
          "bad bitstream magic at byte offset 0");
  require(r.u32("version") == kVersion, ErrorKind::ConfigError,
          "unsupported bitstream version at byte offset 4");
  const auto rows = r.u32("rows"), cols = r.u32("cols"),
             tracks = r.u32("tracks");
  const auto memBlocks = r.u32("memBlocks"),
             memBlockBits = r.u32("memBlockBits");
  require(rows == expected.rows && cols == expected.cols &&
              tracks == expected.tracks && memBlocks == expected.memBlocks &&
              memBlockBits == expected.memBlockBits,
          ErrorKind::ConfigError,
          "bitstream was generated for a different device geometry");
  const auto logicBits = r.u64("logic bit count");
  const auto bramBits = r.u64("bram bit count");
  // Validate the declared sizes against what the container actually holds
  // BEFORE allocating anything: the counts are attacker-controlled 64-bit
  // values, so both the +7 rounding and any pos+len addition could wrap.
  // Everything below is subtraction-based on the known remaining length.
  const std::size_t payloadStart = r.pos;
  require(r.remaining() >= 4, ErrorKind::ConfigError,
          "truncated bitstream: no room for CRC after byte offset " +
              std::to_string(r.pos));
  const std::size_t payloadMax = r.remaining() - 4;
  require(logicBits <= std::uint64_t{payloadMax} * 8, ErrorKind::ConfigError,
          "declared logic bit count " + std::to_string(logicBits) +
              " exceeds the " + std::to_string(payloadMax) +
              " payload byte(s) present at byte offset " +
              std::to_string(payloadStart));
  const std::size_t logicBytes = static_cast<std::size_t>((logicBits + 7) / 8);
  require(bramBits <= (std::uint64_t{payloadMax} - logicBytes) * 8,
          ErrorKind::ConfigError,
          "declared bram bit count " + std::to_string(bramBits) +
              " exceeds the payload byte(s) remaining at byte offset " +
              std::to_string(payloadStart + logicBytes));
  const std::size_t bramBytes = static_cast<std::size_t>((bramBits + 7) / 8);
  // Verify the CRC before constructing the Bitstream: a corrupt file must
  // raise a typed error without any partially imported state escaping.
  const std::uint32_t computed =
      crc32(bytes.data() + payloadStart, logicBytes + bramBytes);
  const std::size_t crcPos = payloadStart + logicBytes + bramBytes;
  Reader crcReader{bytes, crcPos};
  const std::uint32_t stored = crcReader.u32("payload CRC");
  require(stored == computed, ErrorKind::ConfigError,
          "bitstream CRC mismatch at byte offset " + std::to_string(crcPos) +
              " (corrupted configuration file)");
  require(crcReader.remaining() == 0, ErrorKind::ConfigError,
          std::to_string(crcReader.remaining()) +
              " trailing byte(s) after bitstream CRC at byte offset " +
              std::to_string(crcReader.pos));
  Bitstream bs{common::BitVector(logicBits), common::BitVector(bramBits)};
  bs.logic.importBytes(0, logicBits, {bytes.data() + payloadStart, logicBytes});
  bs.bram.importBytes(0, bramBits,
                      {bytes.data() + payloadStart + logicBytes, bramBytes});
  return bs;
}

void saveBitstream(const std::string& path, const DeviceSpec& spec,
                   const Bitstream& bitstream) {
  const auto bytes = serializeBitstream(spec, bitstream);
  common::writeFile(path, {reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()});
}

Bitstream loadBitstream(const std::string& path, const DeviceSpec& expected) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  require(f != nullptr, ErrorKind::ConfigError,
          "cannot open '" + path + "'");
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  require(size > 0, ErrorKind::ConfigError, "empty bitstream file");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  require(std::fread(bytes.data(), 1, bytes.size(), f.get()) == bytes.size(),
          ErrorKind::ConfigError, "short read from '" + path + "'");
  return deserializeBitstream(expected, bytes);
}

}  // namespace fades::fpga
