#include "flowsim/flowsim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amrt::flowsim {

namespace {
constexpr double kDoneEps = 1e-3;  // bytes: below this a flow is drained

std::vector<double> payload_capacities(const Fabric& fabric, double payload_fraction) {
  std::vector<double> cap(fabric.link_count());
  for (LinkId l = 0; l < cap.size(); ++l) {
    cap[l] = fabric.capacity_bps(l) / 8.0 * payload_fraction;
  }
  return cap;
}
}  // namespace

MaxMinSolver::MaxMinSolver(std::vector<double> capacity) : capacity_{std::move(capacity)} {
  const std::size_t n = capacity_.size();
  head_.assign(n, kNil);
  cnt_.assign(n, 0);
  heap_pos_.assign(n, kNil);
}

void MaxMinSolver::add(std::uint32_t handle, std::span<const LinkId> path) {
  if (static_cast<std::int64_t>(handle) <= last_added_) {
    throw std::invalid_argument("MaxMinSolver: handles must be added in increasing order");
  }
  last_added_ = handle;
  if (handle >= path_.size()) {
    path_.resize(handle + 1);
    share_.resize(handle + 1, 0.0);
    seen_.resize(handle + 1, 0);
    frozen_.resize(handle + 1, 0);
  }
  path_[handle] = path;
  for (const LinkId l : path) {
    std::uint32_t node = free_;
    if (node == kNil) {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back({});
    } else {
      free_ = nodes_[node].next;
    }
    nodes_[node] = {handle, kNil};
    std::uint32_t* link = &head_[l];  // the largest handle so far goes last
    while (*link != kNil) link = &nodes_[*link].next;
    *link = node;
    dirty_.push_back(l);
  }
}

void MaxMinSolver::remove(std::uint32_t handle) {
  for (const LinkId l : path_[handle]) {
    std::uint32_t* link = &head_[l];
    while (nodes_[*link].flow != handle) link = &nodes_[*link].next;
    const std::uint32_t node = *link;
    *link = nodes_[node].next;
    nodes_[node].next = free_;
    free_ = node;
    dirty_.push_back(l);
  }
  path_[handle] = {};
}

const std::vector<std::uint32_t>& MaxMinSolver::solve() {
  if (++epoch_ == 0) {  // wrapped: no stale mark may equal the new epoch
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(frozen_.begin(), frozen_.end(), 0);
    epoch_ = 1;
  }

  // Component walk, link -> flows -> links, from every link a membership
  // change touched. Untouched components keep their shares: no freeze in one
  // component changes a link of another. A link is queued when its count of
  // reached flows leaves zero.
  comp_.clear();
  stack_.swap(dirty_);
  while (!stack_.empty()) {
    const LinkId l = stack_.back();
    stack_.pop_back();
    for (std::uint32_t node = head_[l]; node != kNil; node = nodes_[node].next) {
      const std::uint32_t h = nodes_[node].flow;
      if (seen_[h] == epoch_) continue;
      seen_[h] = epoch_;
      comp_.push_back(h);
      for (const LinkId p : path_[h]) {
        if (cnt_[p]++ == 0) stack_.push_back(p);
      }
    }
  }
  std::sort(comp_.begin(), comp_.end());

  // Bottleneck candidates in first-seen order: flows in handle order, each
  // path in order. That is the global scan's order restricted to these
  // components, so it is the same tie-break.
  heap_.clear();
  for (const std::uint32_t h : comp_) {
    for (const LinkId l : path_[h]) {
      if (heap_pos_[l] != kNil) continue;
      const auto order = static_cast<std::uint32_t>(heap_.size());
      heap_pos_[l] = order;
      heap_.push_back({capacity_[l] / static_cast<double>(cnt_[l]), capacity_[l], order, l});
    }
  }
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);

  // Water filling: freeze every unfrozen flow crossing the bottleneck (the
  // smallest per-flow share, earliest first-seen on ties) at that share.
  // Shares are re-keyed on every change rather than kept as lazy lower
  // bounds: rounding can leave a link's share an ulp below its last value.
  while (!heap_.empty()) {
    const LinkId bottleneck = heap_.front().link;
    const double best = heap_.front().share;
    for (std::uint32_t node = head_[bottleneck]; node != kNil; node = nodes_[node].next) {
      const std::uint32_t h = nodes_[node].flow;
      if (frozen_[h] == epoch_) continue;
      frozen_[h] = epoch_;
      share_[h] = best;
      for (const LinkId l : path_[h]) {
        const std::size_t i = heap_pos_[l];
        heap_[i].cap_rem = std::max(0.0, heap_[i].cap_rem - best);
        if (--cnt_[l] == 0) {
          heap_erase(l);
          continue;
        }
        heap_[i].share = heap_[i].cap_rem / static_cast<double>(cnt_[l]);
        reheap(l);
      }
    }
  }
  return comp_;
}

void MaxMinSolver::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(heap_[parent])) break;
    heap_set(i, heap_[parent]);
    i = parent;
  }
  heap_set(i, e);
}

void MaxMinSolver::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(e)) break;
    heap_set(i, heap_[child]);
    i = child;
  }
  heap_set(i, e);
}

void MaxMinSolver::heap_erase(LinkId l) {
  const std::size_t i = heap_pos_[l];
  heap_pos_[l] = kNil;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_set(i, last);
  reheap(last.link);
}

const char* to_string(RateModel m) {
  switch (m) {
    case RateModel::kInstant: return "instant";
    case RateModel::kAmrtGrantClock: return "amrt";
    case RateModel::kDctcpThreshold: return "dctcp";
    case RateModel::kTraditional: return "traditional";
  }
  return "?";
}

FlowSim::FlowSim(const Fabric& fabric, FlowSimConfig cfg)
    : fabric_{fabric},
      cfg_{std::move(cfg)},
      solver_{payload_capacities(fabric, cfg_.payload_fraction)} {
  if (cfg_.rtt <= sim::Duration::zero()) {
    throw std::invalid_argument("FlowSim: rtt must be positive");
  }
  if (cfg_.payload_fraction <= 0.0 || cfg_.payload_fraction > 1.0) {
    throw std::invalid_argument("FlowSim: payload_fraction must be in (0, 1]");
  }
  const std::size_t n = fabric.link_count();
  link_bytes_.assign(n, 0.0);
  link_first_.assign(n, sim::TimePoint::max());
  link_last_.assign(n, sim::TimePoint::zero());
}

void FlowSim::add_flow(std::uint64_t id, std::size_t src, std::size_t dst, std::uint64_t bytes,
                       sim::TimePoint start, RateModel model) {
  if (bytes == 0) throw std::invalid_argument("FlowSim: zero-byte flow");
  Input in;
  in.id = id;
  in.bytes = bytes;
  in.start = start;
  in.model = model;
  in.path_off = static_cast<std::uint32_t>(path_arena_.size());
  fabric_.path(id, src, dst, path_arena_);
  in.path_len = static_cast<std::uint32_t>(path_arena_.size()) - in.path_off;
  inputs_.push_back(in);
}

void FlowSim::record_link_usage(sim::Duration bin) {
  if (bin <= sim::Duration::zero()) {
    throw std::invalid_argument("FlowSim: usage bin must be positive");
  }
  usage_bin_ = bin;
  usage_.assign(fabric_.link_count(), {});
}

sim::Duration FlowSim::completion_latency(const Active& f) const {
  return cfg_.prop_delay * static_cast<std::int64_t>(f.path_len) +
         cfg_.mtu_tx * static_cast<std::int64_t>(f.path_len > 0 ? f.path_len - 1 : 0) +
         cfg_.fixed_latency;
}

void FlowSim::recompute_targets() {
  ++recomputes_;
  const double rtt_s = cfg_.rtt.to_seconds();
  const double slot_step = cfg_.mtu_bytes / rtt_s;  // one packet slot per RTT, bytes/sec

  // Model transitions: how each flow's actual rate tracks its new share.
  // Only re-solved flows can have a new share, and the transition is a
  // no-op for a non-fresh flow whose share did not move.
  for (const std::uint32_t h : solver_.solve()) {
    Active& f = active_[slot_of_[h]];
    f.target = solver_.share(h);
    if (f.fresh) {
      // Arrival: the unscheduled burst plus an immediately-scheduled grant
      // clock put a new flow at its share within the first RTT.
      f.rate = f.target;
      f.ramp_step = 0.0;
      f.fresh = false;
      continue;
    }
    switch (f.model) {
      case RateModel::kInstant:
        f.rate = f.target;
        f.ramp_step = 0.0;
        break;
      case RateModel::kTraditional:
        // Eq. 6: grants lost to a rate reduction are never re-marked.
        if (f.target < f.rate) f.rate = f.target;
        f.ramp_step = 0.0;
        break;
      case RateModel::kAmrtGrantClock:
        if (f.target <= f.rate) {
          f.rate = f.target;  // the grant clock cuts within one RTT
          f.ramp_step = 0.0;
        } else if (f.ramp_step <= 0.0) {
          // Refill episode begins at pre-drop rate R0. Earliest (Eq. 4/7):
          // the filled slots re-mark every RTT, +R0 per RTT. Latest
          // (Eq. 5/8): consecutive vacancies refill one slot per RTT.
          f.ramp_step = cfg_.amrt_ramp_latest ? slot_step : std::max(f.rate, slot_step);
        }
        break;
      case RateModel::kDctcpThreshold:
        if (f.target <= f.rate) {
          f.rate = f.target;
          f.ramp_step = 0.0;
        } else if (f.ramp_step <= 0.0) {
          f.ramp_step = cfg_.mss_bytes / rtt_s;  // additive increase, 1 MSS/RTT
        }
        break;
    }
  }
}

void FlowSim::apply_ramp_tick() {
  for (Active& f : active_) {
    if (f.ramp_step <= 0.0 || f.rate >= f.target) continue;
    f.rate = std::min(f.target, f.rate + f.ramp_step);
    if (f.rate >= f.target) f.ramp_step = 0.0;
  }
}

void FlowSim::advance_to(sim::TimePoint t, stats::FlowObserver* observer) {
  const double dt = (t - now_).to_seconds();
  if (dt > 0.0) {
    const double bin_s = usage_bin_ > sim::Duration::zero() ? usage_bin_.to_seconds() : 0.0;
    for (Active& f : active_) {
      if (f.rate <= 0.0) continue;
      const double add =
          std::min(f.rate * dt, static_cast<double>(f.total_bytes) - f.delivered);
      f.delivered += add;
      const auto whole = static_cast<std::uint64_t>(f.delivered);
      if (observer != nullptr && whole > f.reported) {
        observer->on_flow_progress(f.id, whole - f.reported, t);
        f.reported = whole;
      }
      for (std::uint32_t p = 0; p < f.path_len; ++p) {
        const LinkId l = path_arena_[f.path_off + p];
        link_bytes_[l] += add;
        if (link_first_[l] > now_) link_first_[l] = now_;
        if (link_last_[l] < t) link_last_[l] = t;
        if (bin_s > 0.0) {
          // Spread this segment's mean rate across the bins it overlaps.
          std::int64_t seg_start = now_.ns();
          const std::int64_t seg_end = t.ns();
          const std::int64_t bin_ns = usage_bin_.ns();
          while (seg_start < seg_end) {
            const std::int64_t b = seg_start / bin_ns;
            const std::int64_t b_end = std::min(seg_end, (b + 1) * bin_ns);
            const double overlap_s = static_cast<double>(b_end - seg_start) * 1e-9;
            auto& lane = usage_[l];
            if (lane.size() <= static_cast<std::size_t>(b)) {
              lane.resize(static_cast<std::size_t>(b) + 1, 0.0);
            }
            lane[static_cast<std::size_t>(b)] += f.rate * overlap_s / bin_s;
            seg_start = b_end;
          }
        }
      }
    }
  }
  now_ = t;
}

FlowSimResult FlowSim::run(stats::FlowObserver* observer) {
  std::sort(inputs_.begin(), inputs_.end(), [](const Input& a, const Input& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });

  slot_of_.assign(inputs_.size(), 0);

  FlowSimResult res;
  res.started = 0;
  std::size_t next = 0;
  now_ = sim::TimePoint::zero();
  sim::TimePoint next_tick = sim::TimePoint::max();

  while (next < inputs_.size() || !active_.empty()) {
    // Earliest of: next arrival, earliest drain at current rates, ramp tick.
    sim::TimePoint t_next = sim::TimePoint::max();
    if (next < inputs_.size()) t_next = inputs_[next].start;
    for (const Active& f : active_) {
      if (f.rate <= 0.0) continue;
      const double secs = (static_cast<double>(f.total_bytes) - f.delivered) / f.rate;
      sim::TimePoint est = now_ + sim::Duration::from_seconds(secs);
      if (est <= now_) est = now_ + sim::Duration::nanoseconds(1);
      if (est < t_next) t_next = est;
    }
    if (next_tick < t_next) t_next = next_tick;
    if (t_next == sim::TimePoint::max()) break;  // stalled: no arrivals, nothing moving
    if (t_next > cfg_.max_time) {
      advance_to(cfg_.max_time, observer);
      break;
    }

    advance_to(t_next, observer);
    ++events_;

    bool membership_changed = false;
    // Completions, in arrival order for deterministic observer callbacks.
    for (Active& f : active_) {
      if (static_cast<double>(f.total_bytes) - f.delivered > kDoneEps) continue;
      if (observer != nullptr) {
        if (f.total_bytes > f.reported) {
          observer->on_flow_progress(f.id, f.total_bytes - f.reported, now_);
          f.reported = f.total_bytes;
        }
        observer->on_flow_completed(f.id, now_ + completion_latency(f));
      }
      ++res.completed;
      solver_.remove(f.handle);
      f.path_len = 0;  // mark for removal; keeps indices stable until the erase
      f.rate = 0.0;
      f.total_bytes = 0;
      f.delivered = 0.0;
      membership_changed = true;
    }
    if (membership_changed) {
      active_.erase(std::remove_if(active_.begin(), active_.end(),
                                   [](const Active& f) { return f.path_len == 0; }),
                    active_.end());
      for (std::size_t i = 0; i < active_.size(); ++i) {
        slot_of_[active_[i].handle] = static_cast<std::uint32_t>(i);
      }
    }

    // Arrivals due now.
    while (next < inputs_.size() && inputs_[next].start <= now_) {
      const Input& in = inputs_[next];
      Active f;
      f.id = in.id;
      f.total_bytes = in.bytes;
      f.model = in.model;
      f.start = in.start;
      f.path_off = in.path_off;
      f.path_len = in.path_len;
      f.handle = static_cast<std::uint32_t>(next);
      slot_of_[f.handle] = static_cast<std::uint32_t>(active_.size());
      solver_.add(f.handle, {path_arena_.data() + in.path_off, in.path_len});
      active_.push_back(f);
      if (observer != nullptr) observer->on_flow_started(in.id, in.bytes, in.start);
      ++res.started;
      ++next;
      membership_changed = true;
    }

    if (membership_changed) recompute_targets();

    if (next_tick <= now_) {
      apply_ramp_tick();
      next_tick = sim::TimePoint::max();
    }
    // (Re)arm the grant-clock tick while anyone is still converging.
    bool ramping = false;
    for (const Active& f : active_) {
      if (f.ramp_step > 0.0 && f.rate < f.target) {
        ramping = true;
        break;
      }
    }
    if (ramping) {
      const sim::TimePoint tick = now_ + cfg_.rtt;
      if (tick < next_tick) next_tick = tick;
    } else if (next_tick <= now_) {
      next_tick = sim::TimePoint::max();
    }
  }

  res.events = events_;
  res.recomputes = recomputes_;
  res.end_time = now_;
  return res;
}

}  // namespace amrt::flowsim
