// Block layout of the channel-enlarged path chain (DESIGN.md §12),
// shared by the per-slot walk, the dense cycle collapse and the
// reachability adjoint.
// State off[h] + s means "waiting at hop h with its channel in state s";
// Goal and Discard follow the last hop block.  A hop without a channel
// (or a layout built for an i.i.d. provider) is a one-state block whose
// success probability comes from the provider.  Internal to hart/.
#pragma once

#include <cstdint>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/channel_model.hpp"

namespace whart::hart::detail {

struct ChannelLayout {
  /// Per-hop channel (null = per-slot independent, one state).
  std::vector<const link::ChannelModel*> channel;
  std::vector<std::size_t> k;    ///< states per hop block
  std::vector<std::size_t> off;  ///< first state of each hop block
  std::size_t transient = 0;
  std::size_t goal = 0;
  std::size_t discard = 0;
  std::size_t dim = 0;

  /// Stationary probability of state `s` of hop `h` (1 for k = 1 hops).
  [[nodiscard]] double stationary(std::size_t h, std::size_t s) const {
    return channel[h] != nullptr ? channel[h]->stationary()[s] : 1.0;
  }

  /// Channel transition probability s -> s2 on hop `h`.
  [[nodiscard]] double transition(std::size_t h, std::size_t s,
                                  std::size_t s2) const {
    return channel[h] != nullptr ? channel[h]->transition(s, s2) : 1.0;
  }

  /// True when hop h's block mixes between slots (a channel with more
  /// than one state); one-state blocks are unchanged by idle slots.
  [[nodiscard]] bool mixes(std::size_t h) const {
    return channel[h] != nullptr && k[h] > 1;
  }

  /// True when any hop block mixes (false for every i.i.d. path).
  [[nodiscard]] bool any_mixes() const {
    for (std::size_t h = 0; h < k.size(); ++h)
      if (mixes(h)) return true;
    return false;
  }
};

/// Layout of `config` under `links`.  `enlarged` = false ignores any
/// channel models (the compact i.i.d. chain: one state per hop).
inline ChannelLayout make_layout(const PathModelConfig& config,
                                 const LinkProbabilityProvider& links,
                                 bool enlarged) {
  const std::size_t hops = config.hop_count();
  ChannelLayout layout;
  layout.channel.assign(hops, nullptr);
  layout.k.resize(hops);
  layout.off.resize(hops);
  std::size_t offset = 0;
  for (std::size_t h = 0; h < hops; ++h) {
    if (enlarged) layout.channel[h] = links.channel_model(h);
    layout.k[h] =
        layout.channel[h] != nullptr ? layout.channel[h]->state_count() : 1;
    layout.off[h] = offset;
    offset += layout.k[h];
  }
  layout.transient = offset;
  layout.goal = offset;
  layout.discard = offset + 1;
  layout.dim = offset + 2;
  return layout;
}

/// Success probability of an attempt on hop `h` in channel state `s` in
/// uplink slot `slot` (global, 1-based; the collapse passes the slot of
/// the first cycle, which every cycle repeats under a cycle-stationary
/// provider).
inline double success_probability(const ChannelLayout& layout,
                                  const LinkProbabilityProvider& links,
                                  const PathModelConfig& config,
                                  std::size_t h, std::size_t s,
                                  std::uint32_t slot) {
  if (layout.channel[h] != nullptr)
    return layout.channel[h]->success_in_state(s);
  return links.up_probability(
      h, config.superframe.absolute_slot_of_uplink(slot));
}

/// The per-slot walk's stored backward delivery recursion: entry
/// t * layout.transient + x, for t = 0..TTL, is the probability that a
/// message in transient state x just before uplink slot t + 1 is
/// eventually delivered (row TTL is all 0: the TTL discard has swept
/// every transient state).  A channel block mixes through its transition
/// matrix once per elapsed 10 ms slot, downlink slots included;
/// `inject_state_leak` conditions failed attempts on the stationary
/// distribution instead, as PathAnalysisOptions describes.
[[nodiscard]] std::vector<double> delivery_probabilities(
    const PathModelConfig& config, const ChannelLayout& layout,
    const LinkProbabilityProvider& links, bool inject_state_leak);

}  // namespace whart::hart::detail
