// Campaign job specification for the distributed service.
//
// A JobSpec names everything a worker needs to rebuild the exact campaign
// system the submitter meant: the workload (which fixes netlist and run
// length), the injection tool and engine, the campaign spec proper, and the
// execution knobs that are allowed to vary results (keepRecords changes the
// artifact's record list, so it is part of the job identity; frame caching
// and jobs counts are not - they only change wall-clock - and therefore do
// not appear here).
//
// The fingerprint is the FNV-1a64 of the spec's canonical JSON dump. It is
// the job's identity everywhere: the journal filename in the store, the key
// workers cache built systems under, and the check that a lease and its
// completion talk about the same campaign. Everything a worker computes is a
// pure function of (JobSpec, experiment index), which is what makes the
// coordinator's merged artifact byte-identical to a single-process
// `campaign_8051 --jobs 1` run of the same spec: both paths build their
// engines through the same buildSystem() below.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "synth/implement.hpp"

namespace fades::service {

struct JobSpec {
  /// Injector: "fades" (run-time reconfiguration), "vfit" (simulator
  /// commands) or "autonomous" (compiled-in injection support).
  std::string tool = "fades";
  /// Simulation engine for vfit/autonomous: "event" or "compiled". Ignored
  /// (and rejected by validate()) for the fades tool.
  std::string engine = "event";
  /// Workload/system: "bubblesort6" (MC8051 + 6-element bubblesort, the
  /// paper's set-up) or "demo" (a tiny multi-unit design for fast tests).
  std::string workload = "bubblesort6";
  /// Model, target class, unit, duration band, experiment count and seed.
  campaign::CampaignSpec spec;
  /// Link-fault rate for the fades tool's board link (0 = reliable link).
  double linkFaultRate = 0.0;
  /// Keep per-experiment records (and, for MC8051 workloads, attach the
  /// golden-run instruction trace for PC attribution).
  bool keepRecords = true;
  /// Liveness-based fault-list pruning: workers fold each campaign through
  /// a fades.prune/1 plan (derived deterministically from this spec), run
  /// one representative per equivalence class and synthesize the collapsed
  /// members from it. Changes the artifact's records (pruned members carry
  /// `pruned_from`), so it is part of the job identity; serialized only
  /// when set, keeping every pre-pruning fingerprint stable.
  bool prune = false;
  /// Artifact name; empty derives the campaign_8051 convention
  /// (model_targets_unit) via defaultName().
  std::string name;
};

obs::Json toJson(const JobSpec& job);
bool jobSpecFromJson(const obs::Json& j, JobSpec& out,
                     std::string* error = nullptr);

/// Raises InvalidArgument on unknown tool/engine/workload names, a zero
/// experiment count, or inconsistent combinations (--engine with fades,
/// link faults without fades).
void validate(const JobSpec& job);

/// The job command line campaign_8051 and fades_submit share, after each
/// CLI has taken out its own flags: [--tool T] [--engine E]
/// [--link-faults R] [model] [targets] [unit] [faults] [band], defaulting
/// to bitflip ff any 200 short, seed 2006, name defaultName(). A non-null
/// `trailing` takes one more positional (campaign_8051's artifact path).
/// Malformed input raises InvalidArgument; the combination rules are
/// validate()'s, to call once the CLI's own fields are set.
JobSpec parseJobArgs(const std::vector<std::string>& args,
                     std::string* trailing = nullptr);

/// Command-line spelling of each value ("bitflip", "ff", "any", ...).
/// CbInputLine is named "cbinput" but never parsed: the MC8051 has no
/// CB-input targets.
const char* spelling(campaign::FaultModel model);
const char* spelling(campaign::TargetClass targets);
const char* spelling(netlist::Unit unit);

/// The campaign_8051 artifact naming convention: model_targets_unit using
/// the CLI argument spellings (e.g. "bitflip_ff_any").
std::string defaultName(const JobSpec& job);

/// Canonical job identity: fnv1a64Hex of toJson(job).dump().
std::string fingerprint(const JobSpec& job);

/// A fully built campaign system. Owns the netlist (and, for the fades
/// tool, the implementation) that the engine factory captures by reference,
/// so keep the system alive as long as engines built from `factory` run.
struct CampaignSystem {
  JobSpec job;
  std::uint64_t runCycles = 0;
  netlist::Netlist netlist;
  std::optional<synth::Implementation> impl;
  campaign::EngineFactory factory;
  /// Output ports defining Failure for this workload - what the tools
  /// observe, and what the prune analysis treats as externally visible.
  std::vector<std::string> observedOutputs;
};

/// Wall-clock-only build knobs. Deliberately OUTSIDE the JobSpec (and its
/// fingerprint): nothing here may change outcomes, only how fast the same
/// outcomes are produced.
struct BuildKnobs {
  /// Session-scoped frame transaction cache of the fades configuration port.
  bool sessionFrameCache = true;
};

/// Build the system for `job` (validate() first). Both the distributed
/// worker and the single-process reference CLI construct engines through
/// this one function, so "distributed equals single-process byte-for-byte"
/// holds by construction rather than by parallel maintenance of two setups.
std::shared_ptr<CampaignSystem> buildSystem(const JobSpec& job,
                                            const BuildKnobs& knobs = {});

/// The merged fades.run/1 artifact text for a completed campaign: exactly
/// what RunArtifact::writeJson produces for toRunArtifact(result, name,
/// includeMetrics=false) - the byte-identity target of the service.
std::string artifactText(const JobSpec& job,
                         const campaign::CampaignResult& result);

/// The single plan-construction path for job.prune: record the golden trace
/// of the system's workload and fold the campaign through
/// prune::buildPlan with the tool's own decoder/namer. A pure function of
/// the JobSpec, so every worker (and the single-process CLI) derives the
/// identical plan. Requires tool fades or vfit.
campaign::PrunePlan buildPrunePlan(const CampaignSystem& sys);

}  // namespace fades::service
