#include "bits/config_port.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "common/error.hpp"

namespace fades::bits {

using common::ErrorKind;
using common::require;
using fpga::Plane;

namespace {

using BitUpdates = std::vector<std::pair<std::size_t, bool>>;

void setFrameBit(std::vector<std::uint8_t>& bytes, std::size_t rel,
                 bool value) {
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (rel & 7));
  if (value) {
    bytes[rel >> 3] |= mask;
  } else {
    bytes[rel >> 3] &= static_cast<std::uint8_t>(~mask);
  }
}

BitUpdates lutBits(const fpga::ConfigLayout& layout, CbCoord cb,
                   std::uint16_t table) {
  BitUpdates updates;
  updates.reserve(16);
  for (unsigned i = 0; i < 16; ++i) {
    updates.emplace_back(layout.cbLutBit(cb, i), (table >> i) & 1u);
  }
  return updates;
}

BitUpdates cbFieldBits(const fpga::ConfigLayout& layout, CbCoord cb,
                       std::span<const std::pair<CbField, bool>> fields) {
  BitUpdates updates;
  updates.reserve(fields.size());
  for (const auto& [field, value] : fields) {
    updates.emplace_back(layout.cbFieldBit(cb, field), value);
  }
  return updates;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame transaction shadow
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Unreliable-link model
// ---------------------------------------------------------------------------

void ConfigPort::linkTransfer(LinkOp op, std::uint64_t bytes) {
  // One uniform01 draw per attempt from the dedicated link stream. The
  // experiment RNG is never touched here, and the logical operation sequence
  // is identical with the frame cache on or off, so the draw sequence - and
  // therefore every fault and retry - is a pure function of the seed passed
  // to seedLinkStream().
  const bool isRead = op == LinkOp::Read || op == LinkOp::Capture;
  const double rate =
      linkFaults_.timeoutRate +
      (isRead ? linkFaults_.readCrcRate : linkFaults_.writeFailRate);
  double backoff = retry_.backoffBaseSeconds;
  for (unsigned attempt = 0;; ++attempt) {
    if (linkRng_.uniform01() >= rate) return;  // attempt went through
    ++meter_.linkFaults;
    cLinkFaults_.inc();
    if (attempt >= retry_.maxRetries) {
      common::raise(ErrorKind::LinkError,
                    std::string(isRead ? "readback CRC mismatch"
                                       : "transient write failure") +
                        " persisted through " +
                        std::to_string(retry_.maxRetries) + " retries");
    }
    // Re-issue with backoff. The cost lands in the retry-only meter fields,
    // which BoardLink::seconds() ignores: modeled experiment time stays
    // bit-identical to a fault-free run.
    ++meter_.retryOps;
    meter_.retryBytes += bytes;
    meter_.retryBackoffSeconds += backoff;
    backoff = std::min(backoff * retry_.backoffFactor,
                       retry_.backoffCapSeconds);
    cRetries_.inc();
  }
}

void ConfigPort::setCacheEnabled(bool on) {
  if (!on && cacheEnabled_) {
    invalidate();
    inTransaction_ = false;
  }
  cacheEnabled_ = on;
}

void ConfigPort::sync() {
  if (shadow_.empty()) return;
  // std::map iteration order == ascending FrameKey, so the coalesced
  // write-back is deterministic regardless of the access pattern that built
  // the shadow. Flushing charges nothing: every logical operation that
  // dirtied these frames was metered when it happened.
  std::uint64_t flushed = 0;
  std::uint64_t evicted = 0;
  for (auto it = shadow_.begin(); it != shadow_.end();) {
    const auto& key = it->first;
    ShadowFrame& frame = it->second;
    const auto plane = static_cast<fpga::Plane>(std::get<0>(key));
    if (frame.dirty) {
      if (plane == Plane::Logic) {
        // Differential write-back: the shadow holds the device's previous
        // frame content, so only changed bits travel. By value this is
        // identical to a full frame write (Device::writeLogicFrame ignores
        // per-bit no-ops), it just skips the untouched payload.
        const FrameAddr f{Plane::Logic, std::get<1>(key), std::get<2>(key)};
        const std::size_t firstBit = dev_.layout().logicFrameFirstBit(f);
        const unsigned nBytes =
            (dev_.layout().logicFrameBitCount(f) + 7u) / 8u;
        for (unsigned b = 0; b < nBytes; ++b) {
          unsigned diff = frame.bytes[b] ^ frame.orig[b];
          while (diff != 0) {
            const unsigned r = static_cast<unsigned>(std::countr_zero(diff));
            dev_.setLogicBit(firstBit + b * 8u + r,
                             (frame.bytes[b] >> r) & 1u);
            diff &= diff - 1;
          }
        }
      } else if (plane == Plane::BramContent) {
        dev_.writeBramFrame(std::get<1>(key), std::get<2>(key), frame.bytes);
      }
      // Capture-plane frames are read-only and never marked dirty.
      ++flushed;
      frame.orig = frame.bytes;
      frame.dirty = false;
    }
    if (plane == Plane::Logic) {
      // The logic configuration plane only changes through this port (full
      // downloads and the direct-write escape hatch call invalidate()), so
      // the now-clean shadow stays valid and keeps serving reads. Capture
      // and BRAM-content frames mirror run-time state that the next
      // evaluation, edge or GSR pulse rewrites, so those are dropped.
      ++it;
    } else {
      ++evicted;
      it = shadow_.erase(it);
    }
  }
  if (flushed != 0) cCacheFlushed_.add(flushed);
  if (evicted != 0) cCacheEvicted_.add(evicted);
}

void ConfigPort::invalidate() {
  sync();
  if (!shadow_.empty()) {
    cCacheEvicted_.add(shadow_.size());
    shadow_.clear();
  }
}

ConfigPort::ShadowFrame& ConfigPort::shadowFor(const FrameKey& key) {
  auto it = shadow_.find(key);
  if (it != shadow_.end()) {
    cCacheHits_.inc();
    return it->second;
  }
  cCacheMisses_.inc();
  ShadowFrame& frame = shadow_[key];
  frame.bytes.resize(dev_.spec().frameBytes, 0);
  const auto plane = static_cast<fpga::Plane>(std::get<0>(key));
  if (plane == Plane::Logic) {
    dev_.readLogicFrameInto(
        FrameAddr{Plane::Logic, std::get<1>(key), std::get<2>(key)},
        frame.bytes);
  } else if (plane == Plane::BramContent) {
    dev_.readBramFrameInto(std::get<1>(key), std::get<2>(key), frame.bytes);
  } else {
    dev_.readCaptureFrameInto(std::get<1>(key), frame.bytes);
  }
  frame.orig = frame.bytes;
  return frame;
}

void ConfigPort::shadowStore(const FrameKey& key,
                             std::span<const std::uint8_t> bytes,
                             unsigned payloadBits) {
  ShadowFrame& frame = shadow_[key];
  const unsigned frameBytes = dev_.spec().frameBytes;
  if (frame.orig.empty()) {
    // First touch is a write: snapshot the current device content so the
    // flush can write back differentially. This internal host-side read is
    // unmetered - the logical write was already charged in full.
    frame.orig.resize(frameBytes, 0);
    const auto plane = static_cast<fpga::Plane>(std::get<0>(key));
    if (plane == Plane::Logic) {
      dev_.readLogicFrameInto(
          FrameAddr{Plane::Logic, std::get<1>(key), std::get<2>(key)},
          frame.orig);
    } else if (plane == Plane::BramContent) {
      dev_.readBramFrameInto(std::get<1>(key), std::get<2>(key), frame.orig);
    }
  }
  frame.bytes.assign(frameBytes, 0);
  const std::size_t n =
      std::min<std::size_t>(bytes.size(), (payloadBits + 7u) / 8u);
  std::copy(bytes.begin(), bytes.begin() + n, frame.bytes.begin());
  if ((payloadBits & 7u) != 0 && n == (payloadBits + 7u) / 8u) {
    // Mask pad bits past the payload so shadow reads match what a device
    // write + read-back round-trip would return.
    frame.bytes[n - 1] &=
        static_cast<std::uint8_t>((1u << (payloadBits & 7u)) - 1);
  }
  // A write that lands the device's existing content needs no flush at all.
  frame.dirty = frame.bytes != frame.orig;
}

std::vector<std::uint8_t> ConfigPort::mirrorLogicFrame(FrameAddr f) {
  if (shadowActive()) {
    const auto it = shadow_.find(logicKey(f));
    if (it != shadow_.end()) return it->second.bytes;
  }
  return dev_.readLogicFrame(f);
}

// ---------------------------------------------------------------------------
// Frame-level transfers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ConfigPort::readLogicFrame(FrameAddr f) {
  noteRead(dev_.spec().frameBytes);
  if (shadowActive()) return shadowFor(logicKey(f)).bytes;
  return dev_.readLogicFrame(f);
}

void ConfigPort::writeLogicFrame(FrameAddr f,
                                 std::span<const std::uint8_t> bytes) {
  noteWrite(bytes.size());
  if (shadowActive()) {
    const unsigned payloadBits = dev_.layout().logicFrameBitCount(f);
    require(bytes.size() >= (payloadBits + 7u) / 8u, ErrorKind::ConfigError,
            "short logic frame payload");
    shadowStore(logicKey(f), bytes, payloadBits);
    return;
  }
  // Out-of-transaction write: keep any retained logic shadow honest.
  if (!shadow_.empty()) shadow_.erase(logicKey(f));
  dev_.writeLogicFrame(f, bytes);
}

std::vector<std::uint8_t> ConfigPort::readBramFrame(unsigned block,
                                                    unsigned minor) {
  noteRead(dev_.spec().frameBytes);
  if (shadowActive()) return shadowFor(bramKey(block, minor)).bytes;
  return dev_.readBramFrame(block, minor);
}

void ConfigPort::writeBramFrame(unsigned block, unsigned minor,
                                std::span<const std::uint8_t> bytes) {
  noteWrite(bytes.size());
  if (shadowActive()) {
    const auto& layout = dev_.layout();
    require(block < dev_.spec().memBlocks &&
                minor < layout.bramFramesPerBlock(),
            ErrorKind::ConfigError, "bad bram frame address");
    const std::size_t payloadBits =
        std::min<std::size_t>(layout.frameBits(),
                              std::size_t{dev_.spec().memBlockBits} -
                                  std::size_t{minor} * layout.frameBits());
    require(bytes.size() >= (payloadBits + 7u) / 8u, ErrorKind::ConfigError,
            "short bram frame payload");
    shadowStore(bramKey(block, minor), bytes,
                static_cast<unsigned>(payloadBits));
    return;
  }
  dev_.writeBramFrame(block, minor, bytes);
}

std::vector<std::uint8_t> ConfigPort::readCaptureFrame(unsigned col) {
  noteCapture(dev_.spec().frameBytes);
  if (shadowActive()) return shadowFor(captureKey(col)).bytes;
  return dev_.readCaptureFrame(col);
}

void ConfigPort::writeFullBitstream(const fpga::Bitstream& bs) {
  invalidate();  // a full download supersedes pending writes AND shadows
  dev_.writeFullBitstream(bs);
  noteWrite(dev_.layout().totalConfigBytes());
}

fpga::Bitstream ConfigPort::readbackFull() {
  sync();  // read-back must observe pending frame writes
  auto bs = dev_.readbackBitstream();
  noteRead(dev_.layout().totalConfigBytes());
  return bs;
}

void ConfigPort::pulseGsr() {
  sync();  // pending SrMode writes must land before the pulse
  dev_.pulseGsr();
  noteCommand(8);  // control packet
}

// ---------------------------------------------------------------------------
// Helpers (each does genuine frame traffic)
// ---------------------------------------------------------------------------

std::uint16_t ConfigPort::getLutTable(CbCoord cb) {
  const auto& layout = dev_.layout();
  std::uint16_t table = 0;
  std::size_t bit = layout.cbLutBit(cb, 0);
  unsigned k = 0;
  while (k < 16) {
    const FrameAddr f = layout.frameOfLogicBit(bit);
    const auto bytes = readLogicFrame(f);
    const std::size_t first = layout.logicFrameFirstBit(f);
    const unsigned inFrame = layout.logicFrameBitCount(f);
    while (k < 16 && bit - first < inFrame) {
      const std::size_t rel = bit - first;
      if ((bytes[rel >> 3] >> (rel & 7)) & 1u) {
        table |= static_cast<std::uint16_t>(1u << k);
      }
      ++k;
      ++bit;
    }
  }
  return table;
}

void ConfigPort::setLutTable(CbCoord cb, std::uint16_t table) {
  setLogicBits(lutBits(dev_.layout(), cb, table));
}

void ConfigPort::setLogicBit(std::size_t addr, bool value) {
  const std::pair<std::size_t, bool> update[] = {{addr, value}};
  setLogicBits(update);
}

unsigned ConfigPort::setLogicBits(
    std::span<const std::pair<std::size_t, bool>> updates) {
  return writeLogicBits(updates, /*blind=*/false);
}

void ConfigPort::setLogicBitsBlind(
    std::span<const std::pair<std::size_t, bool>> updates) {
  writeLogicBits(updates, /*blind=*/true);
}

unsigned ConfigPort::writeLogicBits(
    std::span<const std::pair<std::size_t, bool>> updates, bool blind) {
  const auto& layout = dev_.layout();
  // Group updates by frame so each frame is transferred exactly once.
  std::map<std::pair<std::uint32_t, std::uint32_t>, BitUpdates> byFrame;
  for (const auto& u : updates) {
    const FrameAddr f = layout.frameOfLogicBit(u.first);
    byFrame[{f.major, f.minor}].push_back(u);
  }
  for (const auto& [key, list] : byFrame) {
    const FrameAddr f{Plane::Logic, key.first, key.second};
    // A blind write takes the frame from the host-side mirror (== device
    // config, overlaid with any pending shadow writes of the open
    // transaction) instead of reading it back.
    auto bytes = blind ? mirrorLogicFrame(f) : readLogicFrame(f);
    const std::size_t first = layout.logicFrameFirstBit(f);
    for (const auto& [addr, value] : list) {
      setFrameBit(bytes, addr - first, value);
    }
    writeLogicFrame(f, bytes);
  }
  return static_cast<unsigned>(byFrame.size());
}

void ConfigPort::updateCbFields(
    CbCoord cb, std::span<const std::pair<CbField, bool>> fields) {
  setLogicBits(cbFieldBits(dev_.layout(), cb, fields));
}

void ConfigPort::setLutTableBlind(CbCoord cb, std::uint16_t table) {
  setLogicBitsBlind(lutBits(dev_.layout(), cb, table));
}

void ConfigPort::updateCbFieldsBlind(
    CbCoord cb, std::span<const std::pair<CbField, bool>> fields) {
  setLogicBitsBlind(cbFieldBits(dev_.layout(), cb, fields));
}

bool ConfigPort::getCbFieldBit(CbCoord cb, CbField field) {
  const auto& layout = dev_.layout();
  const std::size_t addr = layout.cbFieldBit(cb, field);
  const FrameAddr f = layout.frameOfLogicBit(addr);
  const auto bytes = readLogicFrame(f);
  const std::size_t rel = addr - layout.logicFrameFirstBit(f);
  return (bytes[rel >> 3] >> (rel & 7)) & 1u;
}

void ConfigPort::setCbFieldBit(CbCoord cb, CbField field, bool value) {
  setLogicBit(dev_.layout().cbFieldBit(cb, field), value);
}

bool ConfigPort::readFfState(CbCoord cb) {
  const auto bytes = readCaptureFrame(cb.x);
  return (bytes[cb.y >> 3] >> (cb.y & 7)) & 1u;
}

bool ConfigPort::getBramBit(unsigned block, unsigned bit) {
  const auto& layout = dev_.layout();
  const FrameAddr f = layout.frameOfBramBit(block, bit);
  const auto bytes = readBramFrame(block, f.minor);
  const unsigned rel = bit - f.minor * layout.frameBits();
  return (bytes[rel >> 3] >> (rel & 7)) & 1u;
}

void ConfigPort::setBramBit(unsigned block, unsigned bit, bool value) {
  const auto& layout = dev_.layout();
  const FrameAddr f = layout.frameOfBramBit(block, bit);
  auto bytes = readBramFrame(block, f.minor);
  setFrameBit(bytes, bit - f.minor * layout.frameBits(), value);
  writeBramFrame(block, f.minor, bytes);
}

}  // namespace fades::bits
