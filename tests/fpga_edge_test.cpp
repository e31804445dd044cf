// Edge-case and error-path tests for the FPGA substrate: partial frames,
// invalid addresses, boundary pass transistors, spec validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fpga/bitstream_io.hpp"
#include "fpga/device.hpp"
#include "fpga/layout.hpp"

namespace fades::fpga {
namespace {

using common::ErrorKind;
using common::FadesError;

TEST(LayoutEdge, LastMinorOfColumnMayBePartial) {
  ConfigLayout l(DeviceSpec::small());
  for (unsigned col = 0; col <= l.spec().cols; ++col) {
    const unsigned minors = l.minorsOfColumn(col);
    ASSERT_GT(minors, 0u);
    unsigned total = 0;
    for (unsigned m = 0; m < minors; ++m) {
      const unsigned bits =
          l.logicFrameBitCount(FrameAddr{Plane::Logic, col, m});
      ASSERT_GT(bits, 0u);
      ASSERT_LE(bits, l.frameBits());
      if (m + 1 < minors) {
        EXPECT_EQ(bits, l.frameBits());
      }
      total += bits;
    }
    // Frames tile the column exactly.
    const std::size_t colBits =
        l.logicFrameFirstBit(FrameAddr{Plane::Logic, col, minors - 1}) +
        l.logicFrameBitCount(FrameAddr{Plane::Logic, col, minors - 1}) -
        l.logicFrameFirstBit(FrameAddr{Plane::Logic, col, 0});
    EXPECT_EQ(total, colBits);
  }
}

TEST(LayoutEdge, EveryLogicBitMapsIntoItsFrame) {
  ConfigLayout l(DeviceSpec::small());
  // Walk a sample of addresses including the very last bit.
  for (std::size_t bit :
       {std::size_t{0}, l.logicPlaneBits() / 3, l.logicPlaneBits() / 2,
        l.logicPlaneBits() - 1}) {
    const FrameAddr f = l.frameOfLogicBit(bit);
    const std::size_t first = l.logicFrameFirstBit(f);
    EXPECT_LE(first, bit);
    EXPECT_LT(bit - first, l.logicFrameBitCount(f));
  }
  EXPECT_THROW(l.frameOfLogicBit(l.logicPlaneBits()), FadesError);
}

TEST(LayoutEdge, SpecValidationRejectsBadGeometry) {
  DeviceSpec bad = DeviceSpec::small();
  bad.cols = 13;  // not a multiple of memBlocks (2)
  EXPECT_THROW(ConfigLayout{bad}, FadesError);
  DeviceSpec tiny = DeviceSpec::small();
  tiny.rows = 1;
  EXPECT_THROW(ConfigLayout{tiny}, FadesError);
  DeviceSpec crowded = DeviceSpec::small();
  crowded.memBlocks = 6;  // 12 cols / 6 = 2 columns per block: too few
  EXPECT_THROW(ConfigLayout{crowded}, FadesError);
}

TEST(DeviceEdge, BoundaryPmSwitchesAreInert) {
  Device dev(DeviceSpec::small());
  const auto& l = dev.layout();
  // PM(0, 0) has no west or south segment: WE / NS / WS must decode as
  // non-transistors (setting them changes nothing electrically).
  for (PmSwitch sw : {PmSwitch::WE, PmSwitch::NS, PmSwitch::WS}) {
    const auto m = dev.decodeLogicBit(l.pmSwitchBit(PmCoord{0, 0}, 0, sw));
    EXPECT_FALSE(m.isTransistor);
  }
  // EN at PM(0,0) connects HSeg(0,0) and VSeg(0,0): real.
  const auto en =
      dev.decodeLogicBit(l.pmSwitchBit(PmCoord{0, 0}, 0, PmSwitch::EN));
  EXPECT_TRUE(en.isTransistor);
}

TEST(DeviceEdge, FrameWriteRejectsShortPayload) {
  Device dev(DeviceSpec::small());
  std::vector<std::uint8_t> tooShort(3, 0);
  EXPECT_THROW(dev.writeLogicFrame(FrameAddr{Plane::Logic, 0, 0}, tooShort),
               FadesError);
}

TEST(DeviceEdge, BramFrameAddressValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.readBramFrame(99, 0), FadesError);
  EXPECT_THROW(dev.readBramFrame(0, 999), FadesError);
  std::vector<std::uint8_t> frame(dev.spec().frameBytes, 0xFF);
  EXPECT_THROW(dev.writeBramFrame(99, 0, frame), FadesError);
  EXPECT_NO_THROW(dev.writeBramFrame(0, 0, frame));
  EXPECT_TRUE(dev.bramBit(0));
}

TEST(DeviceEdge, CaptureFrameColumnValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.readCaptureFrame(dev.spec().cols), FadesError);
}

TEST(DeviceEdge, StateRestoreShapeChecked) {
  Device a(DeviceSpec::small());
  Device b(DeviceSpec::medium());
  const auto state = b.captureState();
  EXPECT_THROW(a.restoreState(state), FadesError);
}

TEST(DeviceEdge, BitstreamSizeChecked) {
  Device dev(DeviceSpec::small());
  Bitstream wrong{common::BitVector(10), common::BitVector(10)};
  EXPECT_THROW(dev.writeFullBitstream(wrong), FadesError);
}

TEST(DeviceEdge, PadIndexValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.setPadInput(dev.spec().padCount(), true), FadesError);
}

TEST(DeviceEdge, UnconnectedFabricReadsZero) {
  // An output pad connected to a floating (driverless) segment reads 0.
  Device dev(DeviceSpec::small());
  dev.setLogicBit(dev.layout().padFieldBit(3, PadField::Used), true);
  dev.setLogicBit(dev.layout().padFieldBit(3, PadField::IsOutput), true);
  dev.setLogicBit(dev.layout().padConnBit(3, false, 2), true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(3));
}

// --------------------------------------- bitstream container hardening -----

Bitstream patternBitstream() {
  // Deliberately non-byte-aligned sizes so the rounding paths are exercised.
  Bitstream bs{common::BitVector(301), common::BitVector(97)};
  for (std::size_t i = 0; i < bs.logic.size(); i += 3) bs.logic.set(i, true);
  for (std::size_t i = 0; i < bs.bram.size(); i += 5) bs.bram.set(i, true);
  return bs;
}

/// Deserializing `bytes` must raise ConfigError whose message carries the
/// `fragment` - corrupt files are diagnosed from the message alone.
void expectConfigError(const std::vector<std::uint8_t>& bytes,
                       const std::string& fragment) {
  try {
    deserializeBitstream(DeviceSpec::small(), bytes);
    FAIL() << "corrupt container accepted (wanted '" << fragment << "')";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::ConfigError);
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(BitstreamIo, SerializeDeserializeRoundTrips) {
  const Bitstream original = patternBitstream();
  const auto bytes = serializeBitstream(DeviceSpec::small(), original);
  const Bitstream copy = deserializeBitstream(DeviceSpec::small(), bytes);
  ASSERT_EQ(copy.logic.size(), original.logic.size());
  ASSERT_EQ(copy.bram.size(), original.bram.size());
  for (std::size_t i = 0; i < original.logic.size(); ++i) {
    ASSERT_EQ(copy.logic.get(i), original.logic.get(i)) << "logic bit " << i;
  }
  for (std::size_t i = 0; i < original.bram.size(); ++i) {
    ASSERT_EQ(copy.bram.get(i), original.bram.get(i)) << "bram bit " << i;
  }
}

TEST(BitstreamIo, EveryTruncationIsATypedErrorWithAByteOffset) {
  const auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    try {
      deserializeBitstream(DeviceSpec::small(), cut);
      FAIL() << "container truncated to " << len << " byte(s) accepted";
    } catch (const FadesError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::ConfigError) << "length " << len;
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
          << "length " << len << ": " << e.what();
    }
  }
}

TEST(BitstreamIo, BadMagicAndVersionAreRejected) {
  auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  auto bad = bytes;
  bad[0] ^= 0xFF;
  expectConfigError(bad, "magic");
  bad = bytes;
  bad[4] += 1;  // version field starts at byte 4
  expectConfigError(bad, "version");
}

TEST(BitstreamIo, GeometryMismatchIsRejected) {
  const auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  EXPECT_THROW(deserializeBitstream(DeviceSpec::medium(), bytes), FadesError);
}

TEST(BitstreamIo, HugeDeclaredBitCountsAreRejectedBeforeAllocation) {
  // The declared counts are attacker-controlled 64-bit values; a container
  // declaring ~2^64 bits must fail the bounds check, not wrap it and
  // allocate. Logic count lives at bytes 28-35, bram count at 36-43.
  const auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  auto bad = bytes;
  for (std::size_t i = 28; i < 36; ++i) bad[i] = 0xFF;
  expectConfigError(bad, "logic bit count");
  bad = bytes;
  for (std::size_t i = 36; i < 44; ++i) bad[i] = 0xFF;
  expectConfigError(bad, "bram bit count");
}

TEST(BitstreamIo, PayloadCorruptionFailsTheCrc) {
  auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  bytes[44] ^= 0x10;  // first payload byte, right after the two bit counts
  expectConfigError(bytes, "CRC mismatch");
}

TEST(BitstreamIo, CrcWordCorruptionIsDetected) {
  auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  bytes[bytes.size() - 1] ^= 0x01;
  expectConfigError(bytes, "CRC mismatch");
}

TEST(BitstreamIo, TrailingGarbageIsRejected) {
  auto bytes = serializeBitstream(DeviceSpec::small(), patternBitstream());
  bytes.push_back(0x00);
  expectConfigError(bytes, "trailing");
}

TEST(BitstreamIo, SaveLoadRoundTripsAndLeavesNoTmp) {
  const std::string path = "fpga_edge_bitstream.bin";
  const Bitstream original = patternBitstream();
  saveBitstream(path, DeviceSpec::small(), original);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  const Bitstream loaded = loadBitstream(path, DeviceSpec::small());
  EXPECT_EQ(loaded.logic.size(), original.logic.size());
  EXPECT_EQ(loaded.bram.size(), original.bram.size());
  EXPECT_EQ(loaded.logic.popcount(), original.logic.popcount());
  EXPECT_EQ(loaded.bram.popcount(), original.bram.popcount());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fades::fpga
