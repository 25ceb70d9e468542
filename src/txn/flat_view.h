#ifndef HYDER2_TXN_FLAT_VIEW_H_
#define HYDER2_TXN_FLAT_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tree/node.h"
#include "txn/intention.h"

namespace hyder {

/// In-place view of a wire-v3 ("flat") intention payload.
///
/// A v3 payload carries the same post-order node records as v2 plus a
/// trailing fixed32 offset table, so any record is addressable by index
/// without walking its predecessors (see DESIGN.md "Intention wire format
/// v3"). The view validates the whole payload once in `Parse` — header,
/// tombstones, offset monotonicity, every record's field bounds — and from
/// then on materializes nodes on demand: `NodeAt(i)` decodes record `i`
/// into a pool node the first time it is asked for and CAS-publishes it, so
/// every caller observes one canonical Node per version id. Child edges of
/// a materialized node come out *lazy* (carrying the same
/// `VersionId::Logged(seq, child)` identity a fully decoded intention would
/// have), which is the zero-copy property: walking the conflict zone of an
/// intention materializes only the nodes the walk actually visits, and an
/// intention killed by premeld typically materializes its root and little
/// else instead of `node_count` pool nodes.
///
/// Thread-safety: all const methods are safe under concurrent callers
/// (decode thread, premeld workers, final meld, executors). `NodeAt` takes
/// no locks and calls no resolver, so it is safe to invoke while holding a
/// resolver shard lock.
class FlatIntentionView {
 public:
  ~FlatIntentionView();

  FlatIntentionView(const FlatIntentionView&) = delete;
  FlatIntentionView& operator=(const FlatIntentionView&) = delete;

  /// Validates and adopts a complete v3 payload (including the magic
  /// prefix). `seq` is the log-assigned intention sequence; node `i`
  /// receives `VersionId::Logged(seq, i)` exactly as in a v2 decode.
  /// Corrupt input yields a typed DataLoss/Corruption status, never a view
  /// whose NodeAt can fail.
  static Result<std::shared_ptr<FlatIntentionView>> Parse(std::string payload,
                                                          uint64_t seq);

  /// True when `payload` starts with the v3 magic (cannot collide with a
  /// canonical v2 varint header; see wire_format.h).
  static bool LooksFlat(std::string_view payload);

  uint64_t seq() const { return seq_; }
  uint64_t snapshot_seq() const { return snapshot_seq_; }
  IsolationLevel isolation() const { return isolation_; }
  bool wide() const { return wide_; }
  int fanout() const { return fanout_; }
  uint32_t node_count() const { return node_count_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }
  size_t payload_bytes() const { return payload_.size(); }

  /// The canonical materialization of node `index` (post-order). Null only
  /// for an out-of-range index. Never fails: Parse validated every record.
  NodePtr NodeAt(uint32_t index) const;

  /// The intention root (last post-order record); null for an empty
  /// (delete-only) intention.
  NodePtr Root() const;

  /// Appends the ephemeral `ssv`s of every record in record `index`'s
  /// intra-intention subtree (a wide record's slot ssvs included): the
  /// ephemerals a committed graft of that subtree replaces. Reads what
  /// Parse recorded; materializes nothing.
  void AppendSubtreeEphemeralSsvs(uint32_t index,
                                  std::vector<VersionId>* out) const;
  /// The same for record `index` alone.
  void AppendRecordEphemeralSsvs(uint32_t index,
                                 std::vector<VersionId>* out) const;

  /// Number of records materialized into pool nodes so far (monotonic).
  /// The premeld-churn counters compare this against node_count() for
  /// killed intentions to measure the allocations lazy decode avoided.
  uint64_t materialized() const {
    // relaxed: a statistics read; the node pointers themselves are
    // published through the acquire loads in NodeAt, not this counter.
    return materialized_.load(std::memory_order_relaxed);
  }

 private:
  FlatIntentionView() = default;

  Status ParseBody();
  /// Byte extent [start, end) of record `index` inside the node region.
  void RecordExtent(uint32_t index, const char** start, const char** end) const;
  NodePtr BuildBinary(uint32_t index) const;
  NodePtr BuildWide(uint32_t index) const;
  /// First ephemeral_ssvs_ entry of record `index` or a later record.
  std::vector<std::pair<uint32_t, VersionId>>::const_iterator
  EphemeralSsvsFrom(uint32_t index) const;
  bool SubtreeHasWrites(uint32_t index) const {
    return (subtree_writes_[index >> 6] >> (index & 63)) & 1u;
  }

  std::string payload_;
  uint64_t seq_ = 0;
  uint64_t snapshot_seq_ = 0;
  IsolationLevel isolation_ = IsolationLevel::kSerializable;
  bool wide_ = false;
  int fanout_ = 0;
  uint32_t node_count_ = 0;
  std::vector<Tombstone> tombstones_;
  /// Node region and offset table, pointing into payload_ (stable: the
  /// string is never touched after ParseBody).
  const char* region_ = nullptr;
  size_t region_len_ = 0;
  const char* offsets_ = nullptr;  ///< node_count_ fixed32 entries.
  /// Bit i: some node in record i's intention subtree is altered — the
  /// kFlagSubtreeHasWrites a v2 decode propagates eagerly, precomputed here
  /// because lazy materialization visits parents before children.
  std::vector<uint64_t> subtree_writes_;
  /// Lowest record index in record i's subtree (post-order keeps every
  /// subtree a contiguous index range ending at its root).
  std::vector<uint32_t> first_in_subtree_;
  /// (record index, ssv) for every ephemeral page or slot ssv, in index
  /// order.
  std::vector<std::pair<uint32_t, VersionId>> ephemeral_ssvs_;
  /// slots_[i] holds one strong reference to record i's node once
  /// materialized (released in the destructor).
  mutable std::unique_ptr<std::atomic<Node*>[]> slots_;
  mutable std::atomic<uint64_t> materialized_{0};
};

}  // namespace hyder

#endif  // HYDER2_TXN_FLAT_VIEW_H_
