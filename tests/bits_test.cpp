#include <gtest/gtest.h>

#include <string>

#include "bits/config_port.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "rtl/demo.hpp"
#include "synth/implement.hpp"

namespace fades::bits {
namespace {

using fpga::BramField;
using fpga::CbCoord;
using fpga::CbField;
using fpga::Device;
using fpga::DeviceSpec;
using fpga::FrameAddr;
using fpga::Plane;

TEST(ConfigPort, FrameReadWriteRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const FrameAddr f{Plane::Logic, 3, 1};
  auto bytes = port.readLogicFrame(f);
  bytes[5] = 0xA5;
  port.writeLogicFrame(f, bytes);
  const auto back = port.readLogicFrame(f);
  EXPECT_EQ(back[5], 0xA5);
}

TEST(ConfigPort, MeterCountsBytesAndOps) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  EXPECT_EQ(port.meter().readOps, 0u);

  (void)port.readLogicFrame(FrameAddr{Plane::Logic, 0, 0});
  EXPECT_EQ(port.meter().readOps, 1u);
  EXPECT_EQ(port.meter().bytesFromDevice, dev.spec().frameBytes);

  auto bytes = port.readLogicFrame(FrameAddr{Plane::Logic, 0, 0});
  port.writeLogicFrame(FrameAddr{Plane::Logic, 0, 0}, bytes);
  EXPECT_EQ(port.meter().writeOps, 1u);
  EXPECT_EQ(port.meter().bytesToDevice, dev.spec().frameBytes);

  port.pulseGsr();
  EXPECT_EQ(port.meter().commandOps, 1u);

  port.beginSession();
  EXPECT_EQ(port.meter().sessions, 1u);

  port.resetMeter();
  EXPECT_EQ(port.meter().readOps, 0u);
  EXPECT_EQ(port.meter().bytesFromDevice, 0u);
}

TEST(ConfigPort, LutHelperDoesReadModifyWriteTraffic) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{4, 4};
  port.setLutTable(cb, 0xBEEF);
  EXPECT_EQ(port.getLutTable(cb), 0xBEEF);
  // RMW traffic happened: at least one read and one write.
  EXPECT_GE(port.meter().readOps, 2u);
  EXPECT_GE(port.meter().writeOps, 1u);
  // And the device agrees bit-by-bit.
  EXPECT_EQ(dev.logicBit(dev.layout().cbLutBit(cb, 0)), true);   // 0xBEEF bit0
  EXPECT_EQ(dev.logicBit(dev.layout().cbLutBit(cb, 4)), false);  // bit4
}

TEST(ConfigPort, CbFieldHelperRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{2, 7};
  EXPECT_FALSE(port.getCbFieldBit(cb, CbField::InvLsr));
  port.setCbFieldBit(cb, CbField::InvLsr, true);
  EXPECT_TRUE(port.getCbFieldBit(cb, CbField::InvLsr));
  EXPECT_TRUE(dev.logicBit(dev.layout().cbFieldBit(cb, CbField::InvLsr)));
  port.setCbFieldBit(cb, CbField::InvLsr, false);
  EXPECT_FALSE(port.getCbFieldBit(cb, CbField::InvLsr));
}

TEST(ConfigPort, BramBitHelperRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  EXPECT_FALSE(port.getBramBit(1, 777));
  port.setBramBit(1, 777, true);
  EXPECT_TRUE(port.getBramBit(1, 777));
  EXPECT_TRUE(dev.bramBit(dev.layout().bramContentBit(1, 777)));
}

TEST(ConfigPort, FullBitstreamMetersWholeImage) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const auto bs = port.readbackFull();
  EXPECT_EQ(port.meter().bytesFromDevice, dev.layout().totalConfigBytes());
  port.writeFullBitstream(bs);
  EXPECT_EQ(port.meter().bytesToDevice, dev.layout().totalConfigBytes());
}

TEST(BoardLink, CostModelComposition) {
  BoardLink link;
  link.bytesPerSecond = 1e6;
  link.perOpSeconds = 0.01;
  link.perSessionSeconds = 0.2;
  TransferMeter m;
  m.bytesToDevice = 500000;
  m.bytesFromDevice = 500000;
  m.writeOps = 3;
  m.readOps = 2;
  m.commandOps = 1;
  m.sessions = 2;
  EXPECT_NEAR(link.seconds(m), 1.0 + 0.06 + 0.4, 1e-9);
}

TEST(BoardLink, MeterAccumulation) {
  TransferMeter a, b;
  a.bytesToDevice = 10;
  a.writeOps = 1;
  b.bytesToDevice = 5;
  b.sessions = 1;
  a += b;
  EXPECT_EQ(a.bytesToDevice, 15u);
  EXPECT_EQ(a.writeOps, 1u);
  EXPECT_EQ(a.sessions, 1u);
}

TEST(ConfigPort, ReadFfStateViaCapturePlane) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  // Configure a standalone FF preset to 1 and read its state back.
  const CbCoord cb{5, 6};
  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::FfUsed), true);
  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::SrMode), true);
  dev.pulseGsr();
  EXPECT_TRUE(port.readFfState(cb));
  EXPECT_GE(port.meter().captureOps, 1u);
}

// --- session-scoped frame transaction cache -------------------------------

TEST(ConfigPortCache, ShadowDefersWritesUntilSessionEnd) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  port.setCacheEnabled(true);
  const CbCoord cb{4, 4};
  const std::uint16_t before = port.getLutTable(cb);

  port.beginSession();
  port.setLutTable(cb, 0xBEEF);
  // The write is held in the shadow: the device image is still pristine,
  // but reads through the port see the pending value.
  EXPECT_EQ(dev.logicBit(dev.layout().cbLutBit(cb, 0)), before & 1u);
  EXPECT_EQ(port.getLutTable(cb), 0xBEEF);
  port.endSession();
  // Coalesced write-back landed the frame on the device.
  EXPECT_EQ(port.getLutTable(cb), 0xBEEF);
  port.setCacheEnabled(false);
  EXPECT_EQ(port.getLutTable(cb), 0xBEEF);
}

TEST(ConfigPortCache, MeterIdenticalWithAndWithoutCache) {
  // The cache must never change metered traffic: run the same logical
  // operation sequence against two devices and compare every meter field.
  Device devA(DeviceSpec::small());
  Device devB(DeviceSpec::small());
  ConfigPort cached(devA);
  ConfigPort plain(devB);
  cached.setCacheEnabled(true);

  auto drive = [](ConfigPort& port) {
    port.beginSession();
    port.setLutTable(CbCoord{2, 3}, 0x1234);
    (void)port.getLutTable(CbCoord{2, 3});
    port.setCbFieldBit(CbCoord{2, 3}, CbField::FfUsed, true);
    (void)port.getCbFieldBit(CbCoord{2, 3}, CbField::SrMode);
    (void)port.readCaptureFrame(1);
    (void)port.readCaptureFrame(1);
    port.setBramBit(0, 17, true);
    (void)port.getBramBit(0, 17);
    port.pulseGsr();
    port.endSession();
  };
  drive(cached);
  drive(plain);

  const TransferMeter& a = cached.meter();
  const TransferMeter& b = plain.meter();
  EXPECT_EQ(a.bytesToDevice, b.bytesToDevice);
  EXPECT_EQ(a.bytesFromDevice, b.bytesFromDevice);
  EXPECT_EQ(a.writeOps, b.writeOps);
  EXPECT_EQ(a.readOps, b.readOps);
  EXPECT_EQ(a.captureOps, b.captureOps);
  EXPECT_EQ(a.commandOps, b.commandOps);
  EXPECT_EQ(a.sessions, b.sessions);
  // And the devices ended up in the same configuration.
  EXPECT_TRUE(devA.readbackBitstream().logic == devB.readbackBitstream().logic);
  EXPECT_TRUE(devA.readbackBitstream().bram == devB.readbackBitstream().bram);
}

TEST(ConfigPortCache, RepeatedReadsHitTheShadow) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  port.setCacheEnabled(true);
  auto& hits = obs::Registry::global().counter("config.cache_hits");
  auto& flushed =
      obs::Registry::global().counter("config.cache_frames_flushed");
  const auto hits0 = hits.value();
  const auto flushed0 = flushed.value();

  port.beginSession();
  const FrameAddr f{Plane::Logic, 2, 0};
  (void)port.readLogicFrame(f);           // miss: populates the shadow
  (void)port.readLogicFrame(f);           // hit
  auto bytes = port.readLogicFrame(f);    // hit
  bytes[0] ^= 0xFF;
  port.writeLogicFrame(f, bytes);         // dirties the shadow
  port.endSession();                      // one coalesced flush

  EXPECT_EQ(hits.value() - hits0, 2u);
  EXPECT_EQ(flushed.value() - flushed0, 1u);
  // All three reads and the write were still metered individually.
  EXPECT_EQ(port.meter().readOps, 3u);
  EXPECT_EQ(port.meter().writeOps, 1u);
}

TEST(ConfigPortCache, BlindWritesSeePendingShadowFrames) {
  // A blind write works from the host mirror; with a transaction open the
  // mirror must include pending (unflushed) shadow writes of the same frame
  // or the blind RMW would resurrect stale bits.
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  port.setCacheEnabled(true);
  const CbCoord cb{3, 3};
  const std::size_t bitA = dev.layout().cbFieldBit(cb, CbField::FfUsed);
  const std::size_t bitB = dev.layout().cbFieldBit(cb, CbField::LutUsed);

  port.beginSession();
  port.setLogicBit(bitA, true);  // pending in the shadow
  const std::pair<std::size_t, bool> blind[] = {{bitB, true}};
  port.setLogicBitsBlind(blind);  // same frame, blind path
  port.endSession();
  EXPECT_TRUE(dev.logicBit(bitA));
  EXPECT_TRUE(dev.logicBit(bitB));
}

TEST(ConfigPortCache, PulseGsrFlushesPendingWritesFirst) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  port.setCacheEnabled(true);
  const CbCoord cb{5, 6};
  port.beginSession();
  port.setCbFieldBit(cb, CbField::FfUsed, true);
  port.setCbFieldBit(cb, CbField::SrMode, true);
  // The pulse must observe the SrMode write even though it is still only
  // in the shadow when pulseGsr() is called.
  port.pulseGsr();
  port.endSession();
  EXPECT_TRUE(port.readFfState(cb));
}

// --- cache equivalence across the FADES injectors -------------------------
//
// For every fault model, a campaign run with the session cache ON must be
// indistinguishable from one with it OFF: same outcomes, bit-identical
// modeled seconds, identical transfer meters and identical final device
// configuration. The cache is a host-side wall-clock optimization only.

namespace equiv {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::TargetClass;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;

/// The demo design (rtl::demoDesign) implemented on the small device.
struct CacheDesign {
  netlist::Netlist nl = rtl::demoDesign();
  synth::Implementation impl =
      synth::implement(nl, fpga::DeviceSpec::small());
  std::uint64_t cycles = 48;

  static const CacheDesign& instance() {
    static CacheDesign d;
    return d;
  }
};

FadesOptions baseOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

void expectCacheEquivalence(FadesOptions base, FaultModel model,
                            TargetClass cls, Unit unit,
                            unsigned experiments = 5) {
  const auto& d = CacheDesign::instance();
  FadesOptions onOpts = base;
  onOpts.sessionFrameCache = true;
  FadesOptions offOpts = base;
  offOpts.sessionFrameCache = false;
  fpga::Device devOn(d.impl.spec);
  fpga::Device devOff(d.impl.spec);
  FadesTool toolOn(devOn, d.impl, d.cycles, onOpts);
  FadesTool toolOff(devOff, d.impl, d.cycles, offOpts);

  CampaignSpec spec;
  spec.model = model;
  spec.targets = cls;
  spec.unit = static_cast<int>(unit);
  spec.seed = 7;
  spec.experiments = experiments;
  const auto poolOn = toolOn.enumeratePool(spec);
  const auto poolOff = toolOff.enumeratePool(spec);
  ASSERT_EQ(poolOn, poolOff);

  for (unsigned e = 0; e < experiments; ++e) {
    const auto a = toolOn.runExperimentAt(spec, poolOn, e, 0);
    const auto b = toolOff.runExperimentAt(spec, poolOff, e, 0);
    SCOPED_TRACE("experiment " + std::to_string(e));
    EXPECT_EQ(a.outcome, b.outcome);
    // Bit-identical, not approximately equal: the meters match exactly, so
    // the derived seconds must too.
    EXPECT_EQ(a.modeledSeconds, b.modeledSeconds);
    EXPECT_EQ(a.configSeconds, b.configSeconds);
    EXPECT_EQ(a.workloadSeconds, b.workloadSeconds);
    EXPECT_EQ(a.bytesToDevice, b.bytesToDevice);
    EXPECT_EQ(a.bytesFromDevice, b.bytesFromDevice);
    EXPECT_EQ(a.sessions, b.sessions);
    ASSERT_EQ(a.hasRecord, b.hasRecord);
    if (a.hasRecord) {
      EXPECT_EQ(a.record.targetName, b.record.targetName);
      EXPECT_EQ(a.record.injectCycle, b.record.injectCycle);
      EXPECT_EQ(a.record.durationCycles, b.record.durationCycles);
      EXPECT_EQ(a.record.outcome, b.record.outcome);
    }
    // The devices must leave every experiment in identical configuration:
    // the coalesced write-back produced the same image as the uncached
    // frame-by-frame RMW sequence.
    const auto bsOn = devOn.readbackBitstream();
    const auto bsOff = devOff.readbackBitstream();
    EXPECT_TRUE(bsOn.logic == bsOff.logic);
    EXPECT_TRUE(bsOn.bram == bsOff.bram);
  }

  // Op-level transfer meters, field for field, on a fixed experiment.
  common::Rng rngOn(99), rngOff(99);
  double secOn = 0, secOff = 0;
  TransferMeter mOn, mOff;
  bool threwOn = false, threwOff = false;
  campaign::Outcome oOn{}, oOff{};
  try {
    oOn = toolOn.runExperiment(model, cls, poolOn[0], 5, 2.0, rngOn, &secOn,
                               &mOn);
  } catch (const common::FadesError&) {
    threwOn = true;
  }
  try {
    oOff = toolOff.runExperiment(model, cls, poolOff[0], 5, 2.0, rngOff,
                                 &secOff, &mOff);
  } catch (const common::FadesError&) {
    threwOff = true;
  }
  ASSERT_EQ(threwOn, threwOff);
  if (!threwOn) {
    EXPECT_EQ(oOn, oOff);
    EXPECT_EQ(secOn, secOff);
    EXPECT_EQ(mOn.bytesToDevice, mOff.bytesToDevice);
    EXPECT_EQ(mOn.bytesFromDevice, mOff.bytesFromDevice);
    EXPECT_EQ(mOn.writeOps, mOff.writeOps);
    EXPECT_EQ(mOn.readOps, mOff.readOps);
    EXPECT_EQ(mOn.captureOps, mOff.captureOps);
    EXPECT_EQ(mOn.commandOps, mOff.commandOps);
    EXPECT_EQ(mOn.sessions, mOff.sessions);
  }
}

TEST(CacheEquivalence, BitFlipFlopLsr) {
  expectCacheEquivalence(baseOptions(), FaultModel::BitFlip,
                         TargetClass::SequentialFF, Unit::Registers);
}

TEST(CacheEquivalence, BitFlipFlopGsr) {
  auto o = baseOptions();
  o.bitFlipVia = core::BitFlipVia::Gsr;
  expectCacheEquivalence(o, FaultModel::BitFlip, TargetClass::SequentialFF,
                         Unit::Registers);
}

TEST(CacheEquivalence, BitFlipMemory) {
  expectCacheEquivalence(baseOptions(), FaultModel::BitFlip,
                         TargetClass::MemoryBlockBit, Unit::Ram);
}

TEST(CacheEquivalence, PulseLut) {
  expectCacheEquivalence(baseOptions(), FaultModel::Pulse,
                         TargetClass::CombinationalLut, Unit::Alu);
}

TEST(CacheEquivalence, PulseCbInput) {
  expectCacheEquivalence(baseOptions(), FaultModel::Pulse,
                         TargetClass::CbInputLine, Unit::None);
}

TEST(CacheEquivalence, DelayFullDownload) {
  expectCacheEquivalence(baseOptions(), FaultModel::Delay,
                         TargetClass::CombinationalLine, Unit::None, 3);
}

TEST(CacheEquivalence, DelayPartialFrames) {
  auto o = baseOptions();
  o.fullDownloadForDelay = false;
  expectCacheEquivalence(o, FaultModel::Delay, TargetClass::SequentialLine,
                         Unit::None, 3);
}

TEST(CacheEquivalence, IndeterminationFlop) {
  expectCacheEquivalence(baseOptions(), FaultModel::Indetermination,
                         TargetClass::SequentialFF, Unit::Registers);
}

TEST(CacheEquivalence, IndeterminationLutOscillating) {
  auto o = baseOptions();
  o.oscillatingIndetermination = true;
  expectCacheEquivalence(o, FaultModel::Indetermination,
                         TargetClass::CombinationalLut, Unit::Alu);
}

}  // namespace equiv

}  // namespace
}  // namespace fades::bits
