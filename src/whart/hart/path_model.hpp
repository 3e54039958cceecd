// The hierarchical path model (paper Section IV).  A message travels an
// n-hop uplink path under a TDMA schedule; the resulting DTMC unrolls over
// the uplink slots of one reporting interval.  States are message-age
// tuples (equivalently: (elapsed uplink slots t, hops completed h)); the
// absorbing states are Is goal states — one per superframe cycle — and one
// Discard state for TTL expiry.
//
// Time convention: t counts elapsed uplink slots since the message was
// born (t = 0 at birth).  The transmission scheduled in uplink slot s
// (1-based, continuing across cycles) fires on the transition t = s-1 ->
// t = s.  Displayed ages are t + 1, matching the paper's state labels
// ("(1,-,-)" initially, "(3,3,-)" after a successful slot-2 hop).
//
// Link states, in contrast, evolve in *every* 10 ms slot, including the
// downlink half of each superframe; the model converts uplink slot s to an
// absolute slot before querying the link probability provider.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/markov/dtmc.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"

namespace whart::hart {

/// Which transient solver answers analyze_path.
enum class TransientKernel {
  /// Forward propagation, one step per uplink slot — the paper's Eq. 5
  /// read off directly (analyze_per_slot).  Works under every link
  /// regime and is the reference the collapse is checked against.
  kPerSlot,

  /// Dense firing-only cycle collapse (analyze_collapsed, DESIGN.md
  /// §11): one superframe cycle folds into a dense (sum k_h + 2)-square
  /// cycle matrix built by column updates at the firing slots only, and
  /// the reporting interval advances cycle-by-cycle through it (the
  /// cycle the TTL cuts runs its firings one by one).  Requires a
  /// cycle-stationary link provider (steady-state or stationary-start
  /// channel links); time-varying providers fall back to kPerSlot.
  /// Results agree with kPerSlot to rounding (~1e-15 relative), not
  /// bitwise.
  kSuperframeProduct,
};

/// Per-solve knobs of analyze_path and compute_path_measures.
struct PathAnalysisOptions {
  TransientKernel kernel = TransientKernel::kPerSlot;

  /// Verification-harness fault injection: when nonzero, this delta is
  /// added to entry (0, 0) of the dense cycle matrix before solving
  /// (kSuperframeProduct only, i.i.d. and channel solves alike).  It
  /// deliberately breaks the collapse so the differential oracle can
  /// prove it catches a bad cycle-matrix build.  Always 0 in production.
  double inject_product_error = 0.0;

  /// Verification-harness fault injection: in channel-enlarged solves
  /// (either kernel), redistribute the failure mass of every firing row
  /// by the channel's *stationary* distribution instead of the
  /// conditioned transition row — i.e. forget that a failed attempt is
  /// evidence of a bad channel state.  The classic bug a
  /// correlated-channel solver can have; the oracle's channel arm must
  /// catch it.  Always false in production.
  bool inject_channel_state_leak = false;
};

/// Static description of one path's model.
struct PathModelConfig {
  /// Dedicated uplink slot of each hop (1-based within the frame), in hop
  /// order.  Slots need not be increasing — out-of-order hops simply wait
  /// for the next cycle.
  std::vector<net::SlotNumber> hop_slots;

  /// Optional dedicated *retry* slots (a second transmission opportunity
  /// per hop per frame — common in real WirelessHART schedules, not
  /// modeled in the paper).  Either empty, or one entry per hop where 0
  /// means "no retry slot for this hop".  All non-zero slots must be
  /// distinct from each other and from hop_slots.
  std::vector<net::SlotNumber> retry_slots;

  /// Superframe layout (Fup = schedule length, Fdown).
  net::SuperframeConfig superframe;

  /// Reporting interval Is: the model spans Is superframe cycles.
  std::uint32_t reporting_interval = 1;

  /// Message time-to-live in uplink slots; defaults to Is * Fup (discard
  /// exactly at the end of the reporting interval).
  std::optional<std::uint32_t> ttl;

  /// Extract the config for path `path_index` of a network schedule.
  static PathModelConfig from_schedule(const net::Schedule& schedule,
                                       std::size_t path_index,
                                       net::SuperframeConfig superframe,
                                       std::uint32_t reporting_interval);

  /// Number of hops.
  [[nodiscard]] std::size_t hop_count() const noexcept {
    return hop_slots.size();
  }

  /// Horizon T = Is * Fup (uplink slots in one reporting interval).
  [[nodiscard]] std::uint32_t horizon() const noexcept {
    return reporting_interval * superframe.uplink_slots;
  }

  /// Effective TTL: min(ttl, horizon).
  [[nodiscard]] std::uint32_t effective_ttl() const noexcept;

  /// Throws precondition_error unless the config describes a solvable
  /// path: at least one hop, slots within the frame, no two
  /// transmission opportunities sharing a slot, Is >= 1, a horizon
  /// Is * Fup that fits in 32 bits, and TTL >= 1.
  void validate() const;

  /// Which hop (if any) fires in global uplink slot s (1-based): its
  /// dedicated slot or its retry slot, repeated every frame.
  [[nodiscard]] std::optional<std::size_t> hop_in_slot(
      std::uint32_t global_slot) const noexcept;

  /// Slot of the final (gateway) transmission — the paper's a0.
  [[nodiscard]] net::SlotNumber gateway_slot() const noexcept {
    return hop_slots.back();
  }
};

/// Numeric provenance of one path solve — the observability block
/// attached to PathMeasures (and aggregated into NetworkMeasures) so a
/// run can report where its DTMC work went.  Structural fields are
/// deterministic; `solve_ns` is wall-clock (0 when metrics are off).
struct SolverDiagnostics {
  /// States of the compact message chain both kernels solve: the sum of
  /// the hops' channel state counts (one per i.i.d. hop), then Goal and
  /// Discard.  PathModel::state_count() gives the unrolled chain's size.
  std::size_t dtmc_states = 0;
  std::size_t transient_states = 0;
  std::size_t absorbing_states = 0;

  /// Uplink slots propagated by the forward pass (the horizon).
  std::uint64_t forward_steps = 0;

  /// |1 - (goal mass + discard mass)| after absorption — the numeric
  /// health of the solve (exact arithmetic would give 0).
  double mass_residual = 0.0;

  /// Wall-clock of the forward/backward passes, ns.
  std::uint64_t solve_ns = 0;

  /// Solver that actually produced this result.  kSuperframeProduct only
  /// when the collapse ran; a cycle-stationarity fallback reports
  /// kPerSlot.
  TransientKernel kernel = TransientKernel::kPerSlot;
};

/// Result of transient analysis of a path model.
struct PathTransientResult {
  /// g(i): probability of absorption in goal state i (cycle i, 1-based),
  /// evaluated at the end of the reporting interval.  Size Is.
  std::vector<double> cycle_probabilities;

  /// Probability of the Discard state at the end of the interval.
  double discard_probability = 0.0;

  /// Expected number of transmission attempts during the interval (the
  /// exact basis of the utilization measure).
  double expected_transmissions = 0.0;

  /// Expected attempts per hop (sums to expected_transmissions); feeds
  /// the per-node energy model.
  std::vector<double> expected_transmissions_per_hop;

  /// Expected attempts made by messages that are eventually delivered
  /// (computed exactly via a backward delivery-probability pass) — the
  /// accounting behind the paper's Table II.  Always <=
  /// expected_transmissions.
  double expected_transmissions_delivered = 0.0;

  /// Numeric provenance of this solve (sizes, residual, wall-clock).
  SolverDiagnostics diagnostics;
};

/// The unrolled path DTMC.
class PathModel {
 public:
  /// Validates the config (PathModelConfig::validate) and enumerates the
  /// reachable (t, h) states of the unrolled chain.
  explicit PathModel(PathModelConfig config);

  [[nodiscard]] const PathModelConfig& config() const noexcept {
    return config_;
  }

  /// Exact transient analysis (paper Eq. 5): analyze_per_slot on this
  /// model's config.
  [[nodiscard]] PathTransientResult analyze(
      const LinkProbabilityProvider& links) const;

  /// Materialize the underlying DTMC (the output of the paper's
  /// Algorithm 1) with transition probabilities frozen from `links`.
  /// State names follow the paper: "(3,3,-)", goal states "R7", "R14",
  /// ..., and "Discard".  The unrolled chain is time-homogeneous because
  /// every transient state belongs to exactly one time layer.
  [[nodiscard]] markov::Dtmc to_dtmc(const LinkProbabilityProvider& links) const;

  /// Index of the initial state in the materialized DTMC (always 0).
  [[nodiscard]] markov::StateIndex initial_state() const noexcept { return 0; }

  /// Name of goal state for cycle i (1-based): "R<a0 + (i-1) Fup>".
  [[nodiscard]] std::string goal_state_name(std::uint32_t cycle) const;

  /// Number of states the materialized DTMC will have.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return num_states_;
  }

  /// Which hop (if any) fires in global uplink slot s (1-based).
  [[nodiscard]] std::optional<std::size_t> hop_in_slot(
      std::uint32_t global_slot) const noexcept {
    return config_.hop_in_slot(global_slot);
  }

 private:
  PathModelConfig config_;
  /// state_index_[t][h] for t = 0..ttl-1: dense index of transient state
  /// (t, h), or SIZE_MAX when unreachable.
  std::vector<std::vector<std::size_t>> state_index_;
  std::size_t num_transient_ = 0;
  std::size_t num_states_ = 0;
};

/// The dense firing-only cycle collapse (DESIGN.md §11).  Solves `config`
/// under a cycle-stationary provider without enumerating the unrolled
/// chain: one cycle of the compact chain (each hop's channel states,
/// then Goal and Discard) folds into a dense cycle matrix by column
/// updates at the firing slots only — idle slots are identities for
/// i.i.d. hops and per-hop-block powers T_h^r of the channel transition
/// matrix for channel hops — together with the per-cycle attempt and
/// delivered-attempt accounting.  Full pre-TTL cycles then advance in
/// one dense step each; the cycle the TTL cuts walks its firings, so
/// memory is O(Is + dim^2).  Honors inject_product_error and
/// inject_channel_state_leak; ignores `options.kernel`.  Throws
/// precondition_error when `links` is not cycle-stationary or does not
/// cover every hop.
[[nodiscard]] PathTransientResult analyze_collapsed(
    const PathModelConfig& config, const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options = {});

/// The dense cycle matrix analyze_collapsed advances through: entry
/// (x, y) is the probability of moving from state x at the start of a
/// superframe cycle to state y at its end (uplink and downlink halves).
/// Row-stochastic up to rounding unless inject_product_error is set.
[[nodiscard]] linalg::Matrix cycle_matrix(
    const PathModelConfig& config, const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options = {});

/// The per-slot walk (paper Eq. 5, DESIGN.md §12): forward propagation
/// over the compact chain, one step per uplink slot up to the TTL, with
/// per-slot success probabilities from `links` at the global slot, so
/// time-varying providers (TransientLinks, ScriptedLinks) solve exactly.
/// An i.i.d. hop is a one-state block that only its firing slots touch;
/// a multi-state channel hop's block mixes through its transition matrix
/// once per elapsed 10 ms slot, downlink slots included.  The
/// delivered-attempt accounting reads one stored backward delivery
/// recursion, so time and memory are O(TTL * transient states).  Honors
/// inject_channel_state_leak; ignores `options.kernel` and
/// inject_product_error.
[[nodiscard]] PathTransientResult analyze_per_slot(
    const PathModelConfig& config, const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options = {});

/// Transient analysis of `config` with solver selection, the entry point
/// of the network analysis, the sweeps, the what-if engine and
/// compute_path_measures: analyze_collapsed when the kernel is
/// kSuperframeProduct and `links` is cycle-stationary, otherwise
/// analyze_per_slot (a kSuperframeProduct request on a time-varying
/// provider is counted as hart.path_solve.kernel_fallback).
[[nodiscard]] PathTransientResult analyze_path(
    const PathModelConfig& config, const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options);

}  // namespace whart::hart
