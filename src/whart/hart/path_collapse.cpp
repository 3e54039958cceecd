// The dense firing-only cycle collapse (DESIGN.md §11).
//
// Under a cycle-stationary provider every superframe cycle applies the
// same slot sequence to the compact chain (each hop's channel block,
// then Goal and Discard), so one cycle folds into a dense cycle matrix
// M.  Only firing slots move mass between hop blocks: for an i.i.d. hop
// every other slot is an identity and is skipped, for a channel hop a
// run of r idle slots (uplink or downlink) is the block power T_h^r.
// M is therefore built by applying, to a dense identity, one column
// update per firing slot with the idle runs folded in between — no
// per-slot matrices, no unrolled state enumeration.
//
// The same event walk yields the per-cycle accounting:
//   attempts(x, h)  expected attempts of hop h during a cycle entered in
//                   state x: the prefix column of hop h's block summed
//                   over h's firing slots;
//   K               the delivered-attempt kernel: with b = eventual-
//                   delivery probabilities at a cycle's end and u = the
//                   delivered-attempt mass accrued after it, one cycle
//                   folds backward as u <- K b + M u, b <- M b, where
//                   K = sum over firing slots j of (hop block columns of
//                   Prefix_{j-1}) (hop block rows of Suffix_j).
// Full pre-TTL cycles advance in one dense step each; the cycle the TTL
// cuts walks its firings (forward for the attempts and the discard,
// backward for the delivery fold).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/channel_layout.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {

namespace {

using detail::ChannelLayout;

/// One transmission opportunity of the frame.
struct Firing {
  std::uint32_t slot = 0;  ///< 1-based uplink slot within the frame
  std::size_t hop = 0;
  std::size_t q = 0;     ///< offset of the hop block's success probabilities
  std::size_t fail = 0;  ///< offset of the k x k failure block
};

/// One cycle of the compact chain under a cycle-stationary provider, as
/// a list of firing events with the idle runs between them.
class CycleWalk {
 public:
  CycleWalk(const PathModelConfig& config,
            const LinkProbabilityProvider& links,
            const PathAnalysisOptions& options)
      : config_(config),
        layout_(detail::make_layout(
            config, links, channel_enlarged(links, config.hop_count()))) {
    const std::size_t hops = config.hop_count();
    firings_.reserve(2 * hops);
    for (std::size_t h = 0; h < hops; ++h) {
      firings_.push_back({config.hop_slots[h], h, 0, 0});
      if (h < config.retry_slots.size() && config.retry_slots[h] != 0)
        firings_.push_back({config.retry_slots[h], h, 0, 0});
    }
    std::sort(firings_.begin(), firings_.end(),
              [](const Firing& a, const Firing& b) { return a.slot < b.slot; });
    std::size_t block_states = 0;  // sum over firings of k_h
    std::size_t block_entries = 0;  // sum over firings of k_h^2
    for (const Firing& f : firings_) {
      block_states += layout_.k[f.hop];
      block_entries += layout_.k[f.hop] * layout_.k[f.hop];
    }
    mixing_ = layout_.any_mixes();
    success_.reserve(block_states);
    if (mixing_) failure_.reserve(block_entries);
    for (Firing& f : firings_) {
      const std::size_t k = layout_.k[f.hop];
      f.q = success_.size();
      for (std::size_t s = 0; s < k; ++s)
        success_.push_back(detail::success_probability(layout_, links, config,
                                                       f.hop, s, f.slot));
      if (!mixing_) continue;
      // Failure block: (1 - q_s) times the conditioned transition row —
      // or, under the state-leak injection, the stationary row.
      f.fail = failure_.size();
      for (std::size_t s = 0; s < k; ++s)
        for (std::size_t s2 = 0; s2 < k; ++s2)
          failure_.push_back((1.0 - success_[f.q + s]) *
                             (options.inject_channel_state_leak
                                  ? layout_.stationary(f.hop, s2)
                                  : layout_.transition(f.hop, s, s2)));
    }
    scratch_.resize(layout_.dim);
  }

  [[nodiscard]] const ChannelLayout& layout() const noexcept {
    return layout_;
  }
  [[nodiscard]] bool enlarged() const noexcept {
    return layout_.transient != config_.hop_count();
  }
  /// Sum over the firings of the firing hop's state count.
  [[nodiscard]] std::size_t block_states() const noexcept {
    return success_.size();
  }

  /// Right-multiply every row of `x` (rows x dim, row-major) by the
  /// cycle's slots 1..stop (uplink positions); `full` also applies the
  /// trailing idle run through the downlink half.  visit(f) runs before
  /// firing f is applied, when hop f.hop's block of x holds its columns
  /// of the prefix Prefix_{j-1}.  Channel blocks mix lazily: a block is
  /// brought up to date (one power T_h^r for its whole idle run) only
  /// when a firing reads or feeds it, and at the cycle's end.
  template <typename Visit>
  void forward(std::vector<double>& x, std::size_t rows, std::uint32_t stop,
               bool full, Visit&& visit) {
    at_.assign(layout_.k.size(), 0);
    for (const Firing& f : firings_) {
      if (f.slot > stop) break;
      advance_columns(x, rows, f.hop, f.slot - 1);
      visit(f);
      fire_columns(x, rows, f);
    }
    if (full)
      for (std::size_t h = 0; h < layout_.k.size(); ++h)
        advance_columns(x, rows, h, config_.superframe.cycle_slots());
  }

  /// Left-multiply `y` (dim x cols, row-major) by the cycle's slots
  /// 1..stop, walking them backward from uplink slot `stop` — or from the
  /// cycle's end when `full`.  visit(f) runs after firing f is applied,
  /// when the rows of f's hop block hold Suffix_j.
  template <typename Visit>
  void backward(std::vector<double>& y, std::size_t cols, std::uint32_t stop,
                bool full, Visit&& visit) {
    at_.assign(layout_.k.size(),
               full ? config_.superframe.cycle_slots() : stop);
    for (std::size_t j = firings_.size(); j-- > 0;) {
      const Firing& f = firings_[j];
      if (f.slot > stop) continue;
      fire_rows(y, cols, f);
      visit(f);
    }
    for (std::size_t h = 0; h < layout_.k.size(); ++h)
      retreat_rows(y, cols, h, 0);
  }

 private:
  /// T_h^r of a mixing hop block (k x k, row-major), by repeated
  /// squaring, memoized: the forward, backward and TTL walks revisit the
  /// same idle runs.
  const double* block_power(std::size_t h, std::uint32_t r) {
    for (const Power& p : powers_)
      if (p.hop == h && p.run == r) return power_values_.data() + p.offset;
    const std::size_t k = layout_.k[h];
    const std::size_t kk = k * k;
    // result (k x k) is built in place at the end of power_values_; base
    // and product are scratch.
    const std::size_t offset = power_values_.size();
    power_values_.resize(offset + kk);
    double* result = power_values_.data() + offset;
    std::fill_n(result, kk, 0.0);
    for (std::size_t s = 0; s < k; ++s) result[s * k + s] = 1.0;
    base_.resize(kk);
    product_.resize(kk);
    for (std::size_t s = 0; s < k; ++s)
      for (std::size_t s2 = 0; s2 < k; ++s2)
        base_[s * k + s2] = layout_.transition(h, s, s2);
    // product <- a * b; then copied over `into`.
    const auto multiply_into = [&](const double* a, const double* b,
                                   double* into) {
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t c = 0; c < k; ++c) {
          double acc = 0.0;
          for (std::size_t m = 0; m < k; ++m)
            acc += a[i * k + m] * b[m * k + c];
          product_[i * k + c] = acc;
        }
      std::copy_n(product_.data(), kk, into);
    };
    for (std::uint32_t left = r; left > 0; left >>= 1) {
      if (left & 1U) multiply_into(result, base_.data(), result);
      if (left > 1) multiply_into(base_.data(), base_.data(), base_.data());
    }
    powers_.push_back({h, r, offset});
    return result;
  }

  /// Mix hop h's block of columns of x forward to cycle position `to`
  /// (x <- x * T_h^r for the r slots since the block was last current).
  void advance_columns(std::vector<double>& x, std::size_t rows,
                       std::size_t h, std::uint32_t to) {
    const std::uint32_t r = to - at_[h];
    at_[h] = to;
    if (r == 0 || !layout_.mixes(h)) return;
    const double* power = block_power(h, r);
    const std::size_t dim = layout_.dim;
    const std::size_t k = layout_.k[h];
    const std::size_t off = layout_.off[h];
    for (std::size_t row = 0; row < rows; ++row) {
      double* block = x.data() + row * dim + off;
      for (std::size_t s2 = 0; s2 < k; ++s2) {
        double acc = 0.0;
        for (std::size_t s = 0; s < k; ++s) acc += block[s] * power[s * k + s2];
        scratch_[s2] = acc;
      }
      std::copy_n(scratch_.begin(), k, block);
    }
  }

  /// Mix hop h's block of rows of y back to cycle position `to`
  /// (y <- T_h^r * y for the r slots between `to` and where the block's
  /// rows currently start).
  void retreat_rows(std::vector<double>& y, std::size_t cols, std::size_t h,
                    std::uint32_t to) {
    const std::uint32_t r = at_[h] - to;
    at_[h] = to;
    if (r == 0 || !layout_.mixes(h)) return;
    const double* power = block_power(h, r);
    const std::size_t k = layout_.k[h];
    double* rows = y.data() + layout_.off[h] * cols;
    block_.assign(k * cols, 0.0);
    for (std::size_t s = 0; s < k; ++s)
      for (std::size_t s2 = 0; s2 < k; ++s2) {
        const double weight = power[s * k + s2];
        const double* from = rows + s2 * cols;
        double* to_row = block_.data() + s * cols;
        for (std::size_t c = 0; c < cols; ++c) to_row[c] += weight * from[c];
      }
    std::copy(block_.begin(), block_.end(), rows);
  }

  /// x <- x * F for the slot matrix F of firing f: hop h's block (current
  /// at the firing slot) moves success mass into the next hop's block (a
  /// fresh stationary draw of its channel, arriving after the slot) or
  /// Goal and keeps the conditioned failure mass.
  void fire_columns(std::vector<double>& x, std::size_t rows,
                    const Firing& f) {
    const std::size_t dim = layout_.dim;
    const std::size_t h = f.hop;
    const double* q = success_.data() + f.q;
    const bool last = h + 1 == layout_.k.size();
    at_[h] = f.slot;
    if (!mixing_) {
      const std::size_t target = last ? layout_.goal : h + 1;
      for (std::size_t row = 0; row < rows; ++row) {
        double* xr = x.data() + row * dim;
        xr[target] += q[0] * xr[h];
        xr[h] *= 1.0 - q[0];
      }
      return;
    }
    const std::size_t k = layout_.k[h];
    const std::size_t off = layout_.off[h];
    const double* fail = failure_.data() + f.fail;
    inflow_.resize(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      double* xr = x.data() + row * dim;
      double inflow = 0.0;
      for (std::size_t s = 0; s < k; ++s) inflow += xr[off + s] * q[s];
      inflow_[row] = inflow;
      for (std::size_t s2 = 0; s2 < k; ++s2) {
        double acc = 0.0;
        for (std::size_t s = 0; s < k; ++s)
          acc += xr[off + s] * fail[s * k + s2];
        scratch_[s2] = acc;
      }
      std::copy_n(scratch_.begin(), k, xr + off);
    }
    if (!last) advance_columns(x, rows, h + 1, f.slot);
    for (std::size_t row = 0; row < rows; ++row) {
      double* xr = x.data() + row * dim;
      if (last) {
        xr[layout_.goal] += inflow_[row];
        continue;
      }
      for (std::size_t s2 = 0; s2 < layout_.k[h + 1]; ++s2)
        xr[layout_.off[h + 1] + s2] +=
            inflow_[row] * layout_.stationary(h + 1, s2);
    }
  }

  /// y <- F * y for the slot matrix F of firing f (see fire_columns):
  /// hop h's rows and the next hop's rows are brought to just after the
  /// firing slot, then hop h's rows move to just before it.
  void fire_rows(std::vector<double>& y, std::size_t cols, const Firing& f) {
    const std::size_t h = f.hop;
    const double* q = success_.data() + f.q;
    const bool last = h + 1 == layout_.k.size();
    retreat_rows(y, cols, h, f.slot);
    if (!last) retreat_rows(y, cols, h + 1, f.slot);
    at_[h] = f.slot - 1;
    if (!mixing_) {
      double* row = y.data() + h * cols;
      const double* target = y.data() + (last ? layout_.goal : h + 1) * cols;
      for (std::size_t c = 0; c < cols; ++c)
        row[c] = (1.0 - q[0]) * row[c] + q[0] * target[c];
      return;
    }
    const std::size_t k = layout_.k[h];
    const double* fail = failure_.data() + f.fail;
    // success[c]: the value of entering the next hop's block (a
    // stationary draw of its channel) or Goal, from the rows after the
    // slot.
    success_rows_.assign(cols, 0.0);
    if (last) {
      const double* goal = y.data() + layout_.goal * cols;
      std::copy(goal, goal + cols, success_rows_.begin());
    } else {
      for (std::size_t s2 = 0; s2 < layout_.k[h + 1]; ++s2) {
        const double weight = layout_.stationary(h + 1, s2);
        const double* from = y.data() + (layout_.off[h + 1] + s2) * cols;
        for (std::size_t c = 0; c < cols; ++c)
          success_rows_[c] += weight * from[c];
      }
    }
    double* rows = y.data() + layout_.off[h] * cols;
    fired_.assign(k * cols, 0.0);
    for (std::size_t s = 0; s < k; ++s) {
      double* to = fired_.data() + s * cols;
      for (std::size_t c = 0; c < cols; ++c) to[c] = q[s] * success_rows_[c];
      for (std::size_t s2 = 0; s2 < k; ++s2) {
        const double weight = fail[s * k + s2];
        const double* from = rows + s2 * cols;
        for (std::size_t c = 0; c < cols; ++c) to[c] += weight * from[c];
      }
    }
    std::copy(fired_.begin(), fired_.end(), rows);
  }

  /// A memoized block power: T_hop^run at power_values_[offset].
  struct Power {
    std::size_t hop = 0;
    std::uint32_t run = 0;
    std::size_t offset = 0;
  };

  const PathModelConfig& config_;
  ChannelLayout layout_;
  bool mixing_ = false;
  std::vector<Firing> firings_;
  std::vector<double> success_;  ///< per firing, one per hop-block state
  std::vector<double> failure_;  ///< per firing, k x k (mixing chains only)
  std::vector<Power> powers_;
  std::vector<double> power_values_;
  std::vector<double> base_, product_;  ///< block_power scratch
  std::vector<std::uint32_t> at_;  ///< cycle position each hop block is at
  std::vector<double> scratch_;  ///< one hop block
  std::vector<double> inflow_;   ///< per row of a forward firing
  std::vector<double> block_;         ///< hop block rows being mixed
  std::vector<double> fired_;         ///< hop block rows of a backward firing
  std::vector<double> success_rows_;  ///< success value per column
};

/// One cycle folded: the dense cycle matrix M (dim x dim), the attempts
/// matrix (dim x hops) and the delivered-attempt kernel K (dim x dim),
/// all row-major.
struct CycleFold {
  std::vector<double> matrix;
  std::vector<double> attempts;
  std::vector<double> kernel;
};

CycleFold fold_cycle(CycleWalk& walk, const PathModelConfig& config,
                     double inject_product_error) {
  WHART_TIMER("hart.stage.product_build.ns");
  const ChannelLayout& layout = walk.layout();
  const std::size_t dim = layout.dim;
  const std::size_t hops = config.hop_count();
  const std::uint32_t frame = config.superframe.uplink_slots;
  CycleFold fold;

  // Forward sweep: the identity advanced through the cycle becomes M;
  // the hop block columns seen just before each firing are kept for the
  // attempts matrix and the delivered-attempt kernel.  Goal and Discard
  // rows stay identity rows (nothing leaves an absorbing state and the
  // TTL discard happens outside the cycle), so only the transient rows
  // are swept.
  const std::size_t live = layout.transient;
  fold.matrix.assign(dim * dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) fold.matrix[i * dim + i] = 1.0;
  fold.attempts.assign(dim * hops, 0.0);
  std::vector<double> columns;  // per firing: live x k_h, row-major
  columns.reserve(live * walk.block_states());
  walk.forward(fold.matrix, live, frame, true, [&](const Firing& f) {
    const std::size_t k = layout.k[f.hop];
    const std::size_t off = layout.off[f.hop];
    for (std::size_t r = 0; r < live; ++r)
      for (std::size_t s = 0; s < k; ++s) {
        const double v = fold.matrix[r * dim + off + s];
        columns.push_back(v);
        fold.attempts[r * hops + f.hop] += v;
      }
  });
  if (inject_product_error != 0.0) fold.matrix[0] += inject_product_error;

  // Backward sweep: the identity walked back through the cycle holds
  // Suffix_j after firing j; its hop block rows against the stored
  // prefix columns accumulate K.
  fold.kernel.assign(dim * dim, 0.0);
  std::vector<double> suffix(dim * dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) suffix[i * dim + i] = 1.0;
  std::size_t end = columns.size();
  walk.backward(suffix, dim, frame, true, [&](const Firing& f) {
    const std::size_t k = layout.k[f.hop];
    const std::size_t off = layout.off[f.hop];
    const double* column = columns.data() + (end -= live * k);
    for (std::size_t r = 0; r < live; ++r)
      for (std::size_t s = 0; s < k; ++s) {
        const double v = column[r * k + s];
        if (v == 0.0) continue;
        const double* row = suffix.data() + (off + s) * dim;
        double* out = fold.kernel.data() + r * dim;
        for (std::size_t c = 0; c < dim; ++c) out[c] += v * row[c];
      }
  });
  return fold;
}

}  // namespace

PathTransientResult analyze_collapsed(const PathModelConfig& config,
                                      const LinkProbabilityProvider& links,
                                      const PathAnalysisOptions& options) {
  WHART_SPAN("path_solve");
  config.validate();
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  expects(links.cycle_stationary(),
          "the cycle collapse needs a cycle-stationary provider");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  CycleWalk walk(config, links, options);
  const ChannelLayout& layout = walk.layout();
  const std::size_t hops = config.hop_count();
  const std::size_t dim = layout.dim;
  const std::size_t goal = layout.goal;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t interval = config.reporting_interval;
  const CycleFold fold = fold_cycle(walk, config, options.inject_product_error);

  PathTransientResult result;
  result.cycle_probabilities.assign(interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);

  // Forward over the interval: the message starts at hop 0 with its
  // channel stationary.
  std::vector<double> p(dim, 0.0);
  for (std::size_t s = 0; s < layout.k[0]; ++s)
    p[layout.off[0] + s] = layout.stationary(0, s);
  std::vector<double> p_next(dim, 0.0);
  double goal_seen = 0.0;
  for (std::uint32_t cycle = 0; cycle < interval; ++cycle) {
    const std::uint64_t cycle_start = static_cast<std::uint64_t>(cycle) * frame;
    if (cycle_start + frame <= ttl) {
      // Full pre-TTL cycle: attempts through the accounting matrix, then
      // one dense step through M.
      for (std::size_t x = 0; x < dim; ++x) {
        const double px = p[x];
        if (px == 0.0) continue;
        for (std::size_t h = 0; h < hops; ++h) {
          const double a = px * fold.attempts[x * hops + h];
          result.expected_transmissions_per_hop[h] += a;
        }
      }
      std::fill(p_next.begin(), p_next.end(), 0.0);
      for (std::size_t x = 0; x < dim; ++x) {
        const double px = p[x];
        if (px == 0.0) continue;
        const double* row = fold.matrix.data() + x * dim;
        for (std::size_t c = 0; c < dim; ++c) p_next[c] += px * row[c];
      }
      std::swap(p, p_next);
    } else if (cycle_start < ttl) {
      // The cycle the TTL cuts: its firings up to the TTL slot one by
      // one, then every message still in flight is discarded.  (Mixing
      // after the last firing leaves the discarded mass unchanged.)
      walk.forward(p, 1, static_cast<std::uint32_t>(ttl - cycle_start), false,
                   [&](const Firing& f) {
                     double m = 0.0;
                     for (std::size_t s = 0; s < layout.k[f.hop]; ++s)
                       m += p[layout.off[f.hop] + s];
                     result.expected_transmissions_per_hop[f.hop] += m;
                   });
      for (std::size_t x = 0; x < layout.transient; ++x) {
        result.discard_probability += p[x];
        p[x] = 0.0;
      }
    }
    result.cycle_probabilities[cycle] = p[goal] - goal_seen;
    goal_seen = p[goal];
  }
  // A TTL on a cycle boundary: the expired mass never passed a per-slot
  // discard; sweep it now.
  for (std::size_t x = 0; x < layout.transient; ++x) {
    result.discard_probability += p[x];
    p[x] = 0.0;
  }
  result.expected_transmissions =
      std::accumulate(result.expected_transmissions_per_hop.begin(),
                      result.expected_transmissions_per_hop.end(), 0.0);

  // Delivered-attempt accounting, folded backward: y = [b u] starts as
  // (Goal indicator, 0) right after the TTL slot, walks the TTL cycle's
  // firings back to its start (u gains b on the firing hop's block), and
  // every earlier cycle folds as u <- K b + M u, b <- M b.
  {
    WHART_TIMER("hart.stage.tail_solve.ns");
    const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
    std::vector<double> y(dim * 2, 0.0);
    y[goal * 2] = 1.0;
    walk.backward(y, 2, ttl - ttl_cycle * frame, false, [&](const Firing& f) {
      for (std::size_t s = 0; s < layout.k[f.hop]; ++s) {
        const std::size_t x = layout.off[f.hop] + s;
        y[x * 2 + 1] += y[x * 2];
      }
    });
    std::vector<double> y_next(dim * 2, 0.0);
    for (std::uint32_t cycle = ttl_cycle; cycle-- > 0;) {
      for (std::size_t r = 0; r < dim; ++r) {
        const double* m = fold.matrix.data() + r * dim;
        const double* k = fold.kernel.data() + r * dim;
        double b = 0.0;
        double u = 0.0;
        for (std::size_t c = 0; c < dim; ++c) {
          b += m[c] * y[c * 2];
          u += k[c] * y[c * 2] + m[c] * y[c * 2 + 1];
        }
        y_next[r * 2] = b;
        y_next[r * 2 + 1] = u;
      }
      std::swap(y, y_next);
    }
    double delivered = 0.0;
    for (std::size_t s = 0; s < layout.k[0]; ++s)
      delivered += layout.stationary(0, s) * y[(layout.off[0] + s) * 2 + 1];
    result.expected_transmissions_delivered = delivered;
  }

  SolverDiagnostics& d = result.diagnostics;
  d.dtmc_states = dim;
  d.transient_states = layout.transient;
  d.absorbing_states = 2;
  d.forward_steps = config.horizon();
  d.kernel = TransientKernel::kSuperframeProduct;
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  d.mass_residual = std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  WHART_COUNT("hart.path_solve.superframe");
  if (walk.enlarged()) WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    d.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", d.solve_ns);
  }
#endif
  return result;
}

linalg::Matrix cycle_matrix(const PathModelConfig& config,
                            const LinkProbabilityProvider& links,
                            const PathAnalysisOptions& options) {
  config.validate();
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  expects(links.cycle_stationary(),
          "the cycle collapse needs a cycle-stationary provider");
  CycleWalk walk(config, links, options);
  const CycleFold fold = fold_cycle(walk, config, options.inject_product_error);
  const std::size_t dim = walk.layout().dim;
  linalg::Matrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c) m(r, c) = fold.matrix[r * dim + c];
  return m;
}

}  // namespace whart::hart
