// Struct-of-arrays slab holding every AP agent's mutable state.
//
// Pre-refactor, each ApAgent owned an unordered_set<uint32> seen-set, an
// unordered_map of hosted postboxes, and a behavior byte — ~120 bytes of
// container headers per AP before a single message flows, scattered across
// the agent vector in pointer-chasing node allocations. At metro scale
// (tens of thousands of APs, a postbox on a handful of them) that is the
// dominant per-AP cost. This slab replaces all of it with flat arrays
// indexed by AP id:
//
//   - behavior:   one byte per AP
//   - seen count: one uint32 per AP (diagnostics; the membership test lives
//                 in the dup filter below)
//   - dup filter: one hash set of (message_id << 32 | ap) keys shared by
//                 every AP
//   - postboxes:  intrusive chains through one shared entry slab; APs
//                 hosting nothing (almost all of them) pay 4 bytes
//
// One slab serves the whole network; ApAgent keeps only immutable identity
// plus a (slab, slot) reference.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/postbox.hpp"

namespace citymesh::core {

/// Failure-injection modes for the security experiments (§1 "Security").
enum class AgentBehavior : std::uint8_t {
  kNormal,
  kCompromisedDrop,  ///< receives but never rebroadcasts or delivers
};

class AgentStateSlab {
 public:
  explicit AgentStateSlab(std::size_t ap_count)
      : behavior_(ap_count, AgentBehavior::kNormal),
        seen_counts_(ap_count, 0),
        postbox_head_(ap_count, kNone) {}

  std::size_t ap_count() const { return behavior_.size(); }

  void set_behavior(std::uint32_t ap, AgentBehavior b) { behavior_[ap] = b; }
  AgentBehavior behavior(std::uint32_t ap) const { return behavior_[ap]; }

  /// Duplicate suppression: records the sighting and returns true on the
  /// first time (ap, message_id) is seen, false for a duplicate.
  bool mark_seen(std::uint32_t ap, std::uint32_t message_id) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(message_id) << 32) | ap;
    if (!seen_.insert(key).second) return false;
    ++seen_counts_[ap];
    return true;
  }

  /// Number of distinct messages this AP has seen (diagnostics).
  std::size_t seen_count(std::uint32_t ap) const { return seen_counts_[ap]; }

  /// Host a postbox at `ap`; a box with an already-hosted tag replaces the
  /// previous one (matching the old per-agent map semantics).
  void host_postbox(std::uint32_t ap, std::shared_ptr<Postbox> box);

  std::shared_ptr<Postbox> postbox_for_tag(std::uint32_t ap, std::uint32_t tag) const {
    for (std::uint32_t e = postbox_head_[ap]; e != kNone; e = entries_[e].next) {
      if (entries_[e].tag == tag) return entries_[e].box;
    }
    return nullptr;
  }

  /// Visit every postbox hosted at `ap` (geo-broadcast delivery).
  template <typename Fn>
  void for_each_postbox(std::uint32_t ap, Fn&& fn) const {
    for (std::uint32_t e = postbox_head_[ap]; e != kNone; e = entries_[e].next) {
      fn(entries_[e].box);
    }
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct PostboxEntry {
    std::shared_ptr<Postbox> box;
    std::uint32_t tag = 0;
    std::uint32_t next = kNone;
  };

  std::vector<AgentBehavior> behavior_;
  std::vector<std::uint32_t> seen_counts_;
  std::vector<std::uint32_t> postbox_head_;  ///< entry index or kNone
  std::vector<PostboxEntry> entries_;
  std::unordered_set<std::uint64_t> seen_;  ///< the dup filter
};

}  // namespace citymesh::core
