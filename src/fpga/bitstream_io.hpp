// Bitstream serialization - the on-disk "configuration file" of Figure 1.
//
// A compact container with a magic header, the device geometry (so a
// bitstream cannot be loaded onto an incompatible device), both
// configuration planes, and a CRC-32 over the payload, mirroring how real
// vendor bitstreams carry sync words and CRC frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.hpp"

namespace fades::fpga {

/// Serialize to the container format (in-memory).
std::vector<std::uint8_t> serializeBitstream(const DeviceSpec& spec,
                                             const Bitstream& bitstream);

/// Parse a container; throws ConfigError on bad magic, geometry mismatch
/// against `expected`, truncation, or CRC failure.
Bitstream deserializeBitstream(const DeviceSpec& expected,
                               std::vector<std::uint8_t> const& bytes);

/// File convenience wrappers; saving is crash-safe (common::writeFile).
void saveBitstream(const std::string& path, const DeviceSpec& spec,
                   const Bitstream& bitstream);
Bitstream loadBitstream(const std::string& path, const DeviceSpec& expected);

/// CRC-32 (IEEE 802.3, reflected) used by the container.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

}  // namespace fades::fpga
