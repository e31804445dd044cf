#include "fpga/layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fades::fpga {

using common::ErrorKind;
using common::require;

ConfigLayout::ConfigLayout(const DeviceSpec& spec) : spec_(spec) {
  require(spec.rows >= 2 && spec.cols >= 2, ErrorKind::InvalidArgument,
          "device too small");
  require(spec.cols % spec.memBlocks == 0, ErrorKind::InvalidArgument,
          "cols must be a multiple of memBlocks");
  require(spec.cols / spec.memBlocks >= 3, ErrorKind::InvalidArgument,
          "too many memory blocks for this width");
  cbRecordBits_ = kCbHeaderBits + (2 * kCbInPins + 2 * kCbOutPins) * spec.tracks;
  pmRecordBits_ = kPmSwitches * spec.tracks;
  padRecordBits_ = kPadHeaderBits + 2 * spec.tracks;
  bramRecordBits_ =
      kBramHeaderBits + DeviceSpec::kBramPins * 2 * spec.tracks;

  // Column blob: CB records (x < cols), then PM records for PM(x, 0..rows),
  // then edge pads (col 0: west, col cols: east), then (col cols) BRAM setup.
  colStart_.assign(spec.cols + 2, 0);
  for (unsigned x = 0; x <= spec.cols; ++x) {
    std::size_t bits = 0;
    if (x < spec.cols) bits += std::size_t{spec.rows} * cbRecordBits_;
    bits += std::size_t{spec.rows + 1} * pmRecordBits_;
    if (x == 0 || x == spec.cols) bits += std::size_t{spec.rows} * padRecordBits_;
    if (x == spec.cols) bits += std::size_t{spec.memBlocks} * bramRecordBits_;
    colStart_[x + 1] = colStart_[x] + bits;
  }
  logicBits_ = colStart_[spec.cols + 1];
}

unsigned ConfigLayout::minorsOfColumn(unsigned col) const {
  return static_cast<unsigned>((columnBits(col) + frameBits() - 1) /
                               frameBits());
}

unsigned ConfigLayout::bramFramesPerBlock() const {
  return (spec_.memBlockBits + frameBits() - 1) / frameBits();
}

unsigned ConfigLayout::captureFramesPerColumn() const {
  return (spec_.rows + frameBits() - 1) / frameBits();
}

std::size_t ConfigLayout::totalConfigFrames() const {
  std::size_t n = 0;
  for (unsigned c = 0; c <= spec_.cols; ++c) n += minorsOfColumn(c);
  n += std::size_t{spec_.memBlocks} * bramFramesPerBlock();
  return n;
}

ConfigLayout::Decoded ConfigLayout::decode(std::size_t bit) const {
  require(bit < logicBits_, ErrorKind::ConfigError,
          "logic bit address out of range");
  const auto it = std::upper_bound(colStart_.begin(), colStart_.end(), bit);
  const unsigned col = static_cast<unsigned>(it - colStart_.begin()) - 1;
  std::size_t rel = bit - colStart_[col];

  Decoded d{};
  if (col < spec_.cols) {
    const std::size_t cbRegion = std::size_t{spec_.rows} * cbRecordBits_;
    if (rel < cbRegion) {
      d.region = Decoded::Region::Cb;
      d.cb = CbCoord{static_cast<std::uint16_t>(col),
                     static_cast<std::uint16_t>(rel / cbRecordBits_)};
      d.bitInRecord = static_cast<unsigned>(rel % cbRecordBits_);
      return d;
    }
    rel -= cbRegion;
  }
  const std::size_t pmRegion = std::size_t{spec_.rows + 1} * pmRecordBits_;
  if (rel < pmRegion) {
    d.region = Decoded::Region::Pm;
    d.pm = PmCoord{static_cast<std::uint16_t>(col),
                   static_cast<std::uint16_t>(rel / pmRecordBits_)};
    d.bitInRecord = static_cast<unsigned>(rel % pmRecordBits_);
    return d;
  }
  rel -= pmRegion;
  if (col == 0 || col == spec_.cols) {
    const std::size_t padRegion = std::size_t{spec_.rows} * padRecordBits_;
    if (rel < padRegion) {
      d.region = Decoded::Region::Pad;
      const unsigned row = static_cast<unsigned>(rel / padRecordBits_);
      d.pad = (col == 0) ? row : spec_.rows + row;
      d.bitInRecord = static_cast<unsigned>(rel % padRecordBits_);
      return d;
    }
    rel -= padRegion;
  }
  d.region = Decoded::Region::Bram;
  d.block = static_cast<unsigned>(rel / bramRecordBits_);
  d.bitInRecord = static_cast<unsigned>(rel % bramRecordBits_);
  return d;
}

FrameAddr ConfigLayout::frameOfLogicBit(std::size_t bit) const {
  require(bit < logicBits_, ErrorKind::ConfigError,
          "logic bit address out of range");
  const auto it = std::upper_bound(colStart_.begin(), colStart_.end(), bit);
  const unsigned col = static_cast<unsigned>(it - colStart_.begin()) - 1;
  const std::size_t rel = bit - colStart_[col];
  return FrameAddr{Plane::Logic, col,
                   static_cast<std::uint32_t>(rel / frameBits())};
}

std::size_t ConfigLayout::logicFrameFirstBit(FrameAddr f) const {
  require(f.plane == Plane::Logic && f.major <= spec_.cols &&
              f.minor < minorsOfColumn(f.major),
          ErrorKind::ConfigError, "bad logic frame address");
  return columnStart(f.major) + std::size_t{f.minor} * frameBits();
}

unsigned ConfigLayout::logicFrameBitCount(FrameAddr f) const {
  const std::size_t first = logicFrameFirstBit(f);
  const std::size_t colEnd = colStart_[f.major + 1];
  return static_cast<unsigned>(std::min<std::size_t>(frameBits(),
                                                     colEnd - first));
}

FrameAddr ConfigLayout::frameOfBramBit(unsigned block, unsigned bit) const {
  require(block < spec_.memBlocks && bit < spec_.memBlockBits,
          ErrorKind::ConfigError, "bram bit address out of range");
  return FrameAddr{Plane::BramContent, block, bit / frameBits()};
}

// ---------------------------------------------------------------------------

RoutingNodes::RoutingNodes(const DeviceSpec& spec) : spec_(spec) {
  const std::uint32_t hsegs = spec.cols * (spec.rows + 1) * spec.tracks;
  const std::uint32_t vsegs = (spec.cols + 1) * spec.rows * spec.tracks;
  hsegBase_ = 0;
  vsegBase_ = hsegBase_ + hsegs;
  cbInBase_ = vsegBase_ + vsegs;
  cbOutBase_ = cbInBase_ + spec.cbCount() * kCbInPins;
  padBase_ = cbOutBase_ + spec.cbCount() * kCbOutPins;
  bramBase_ = padBase_ + spec.padCount();
  total_ = bramBase_ + spec.memBlocks * DeviceSpec::kBramPins;
}

void RoutingNodes::position(std::uint32_t node, double& x, double& y) const {
  const NodeInfo n = info(node);
  switch (n.kind) {
    case NodeKind::HSeg:
      x = n.x + 0.5;
      y = n.y;
      break;
    case NodeKind::VSeg:
      x = n.x;
      y = n.y + 0.5;
      break;
    case NodeKind::CbIn:
    case NodeKind::CbOut:
      x = n.x + 0.5;
      y = n.y + 0.5;
      break;
    case NodeKind::Pad:
      x = n.x < spec_.rows ? 0.0 : static_cast<double>(spec_.cols);
      y = n.x < spec_.rows ? n.x : n.x - spec_.rows;
      break;
    case NodeKind::BramPin: {
      const unsigned colsPerBlock = spec_.cols / spec_.memBlocks;
      x = n.x * colsPerBlock + n.track % colsPerBlock;
      y = spec_.rows;
      break;
    }
  }
}

}  // namespace fades::fpga
