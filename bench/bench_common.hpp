// Shared infrastructure for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (Section 6) on the same system under test: the MC8051 core
// running Bubblesort, implemented on the Virtex-1000-class generic FPGA.
// Campaign sizes default to a fraction of the paper's 3000 faults so the
// whole suite runs in minutes; set FADES_FAULTS=3000 to reproduce at full
// scale (results converge well before that).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "service/jobspec.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace fades::bench {

/// Per-binary run-artifact guard. Construct first thing in main():
///
///   int main(int argc, char** argv) {
///     bench::BenchRun run("fig10_emulation_time", argc, argv);
///     ...
///
/// With `--json [path]` on the command line (path defaults to
/// BENCH_<name>.json) every printTable / recordCampaign / recordScalar call
/// is captured, and the destructor writes a `fades.run/1` artifact holding
/// the tables, campaign results, scalars, the global metrics snapshot and
/// the Chrome trace of the run. Without the flag the guard is inert and the
/// bench prints exactly as before.
class BenchRun {
 public:
  BenchRun(std::string name, int argc, char** argv);
  ~BenchRun();
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  bool recording() const { return !jsonPath_.empty(); }
  const std::string& jsonPath() const { return jsonPath_; }

  void addTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);
  void addCampaign(const std::string& label,
                   const campaign::CampaignResult& result);
  void addScalar(const std::string& name, double value);

 private:
  std::string name_;
  std::string jsonPath_;
  obs::Json tables_ = obs::Json::array();
  obs::Json campaigns_ = obs::Json::array();
  obs::Json scalars_ = obs::Json::object();
};

/// Record a campaign result under `label` into the active BenchRun; no-op
/// when no guard is recording.
void recordCampaign(const std::string& label,
                    const campaign::CampaignResult& result);
/// Record a named headline scalar (speedup factor, eligible count, ...).
void recordScalar(const std::string& name, double value);

/// Experiment count for outcome-percentage campaigns (env FADES_FAULTS).
unsigned classifyCount(unsigned defaultCount = 400);
/// Experiment count for emulation-time campaigns (they converge fast).
unsigned timingCount(unsigned defaultCount = 80);

/// FADES campaign worker count: `--jobs N` on the bench command line
/// (captured by BenchRun), env FADES_JOBS as fallback, default 1 (serial).
/// 0 means one worker per hardware thread.
unsigned jobs();

/// Run `spec` with `tool`'s configuration, sharded across jobs() workers.
/// With jobs() == 1 the runner's loop drives `tool` itself
/// (campaign::runCampaign); otherwise a ParallelCampaignRunner built for
/// this campaign (replicating the tool's device spec and options) runs it
/// with bit-identical results - sharding changes the bench's wall-clock,
/// never its numbers. Either way a progress heartbeat fires every 100
/// experiments.
campaign::CampaignResult runCampaign(core::FadesTool& tool,
                                     const campaign::CampaignSpec& spec);

/// The paper's system under test, built once per bench binary by
/// service::buildSystem (tool fades, workload bubblesort6) - the same
/// system campaign_8051 and the service workers build.
class System8051 {
 public:
  System8051();

  std::uint64_t runCycles() const { return sys_->runCycles; }
  const netlist::Netlist& netlist() const { return sys_->netlist; }
  const synth::Implementation& implementation() const { return *sys_->impl; }

  /// FADES over the implementation (functional campaigns).
  core::FadesTool& fades();
  /// FADES on a device whose clock period is calibrated just above the
  /// fault-free critical path (core::delayCalibratedSpec), so delay faults
  /// can violate timing.
  core::FadesTool& fadesForDelay();
  /// The VFIT baseline on the same HDL model.
  vfit::VfitTool& vfit();

  core::FadesOptions fadesOptions() const;

  void printHeadline() const;

 private:
  std::shared_ptr<const service::CampaignSystem> sys_;
  std::unique_ptr<fpga::Device> device_;
  std::unique_ptr<core::FadesTool> fades_;
  std::unique_ptr<fpga::Device> delayDevice_;
  std::unique_ptr<core::FadesTool> fadesDelay_;
  std::unique_ptr<vfit::VfitTool> vfit_;
};

/// "measured (paper: x)" cell helper.
std::string withPaper(double measured, const std::string& paper,
                      int decimals = 2);

/// Render one outcome row: failure/latent/silent percentages.
std::string pct3(const campaign::CampaignResult& r);

void printTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Run one campaign per duration band (the paper's <1 / 1-10 / 11-20
/// sweep) and return the results in band order. `pool` optionally confines
/// targets (the paper's "eligible registers" campaigns).
std::vector<campaign::CampaignResult> bandSweep(
    core::FadesTool& tool, campaign::FaultModel model,
    campaign::TargetClass targets, netlist::Unit unit, unsigned experiments,
    std::uint64_t seed = 5, std::vector<std::uint32_t> pool = {});

/// The paper's fault-location scan (Section 6.3): flip-flops whose bit-flip
/// can cause a failure. Cached per tool instance.
std::vector<std::uint32_t> eligibleFlops(core::FadesTool& tool);
/// Names of the eligible flip-flops (to confine VFIT to the same pool).
std::vector<std::string> eligibleFlopNames(core::FadesTool& tool);
/// Routed lines driven by eligible flip-flops (delay campaigns into
/// sequential logic).
std::vector<std::uint32_t> eligibleSequentialLines(core::FadesTool& tool);

}  // namespace fades::bench
