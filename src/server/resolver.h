#ifndef HYDER2_SERVER_RESOLVER_H_
#define HYDER2_SERVER_RESOLVER_H_

#include <array>
#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "log/shared_log.h"
#include "meld/pipeline.h"
#include "tree/node.h"
#include "txn/intention.h"

namespace hyder {

class FlatIntentionView;

/// Options for the server-side reference resolver.
struct ResolverOptions {
  /// Materialized intentions kept for lazy logged-reference resolution
  /// before LRU eviction (evicted intentions are refetched from the log on
  /// demand — the paper's random log read path, §1/§5.2). Distributed over
  /// the shards; the total never exceeds this value.
  size_t intention_cache_capacity = 4096;
  /// Lock-striped shards for the intention cache + directory, keyed by
  /// intention sequence. Premeld workers, the final-meld thread and the
  /// executors resolve concurrently; striping keeps them off one mutex.
  /// Clamped to [1, intention_cache_capacity] so each shard can hold at
  /// least one intention.
  size_t shards = 8;
  /// Retry policy for transient log errors on the refetch path.
  RetryPolicy log_retry;
};

/// Resolves node references for one server: logged references through a
/// materialized-intention cache backed by the shared log, ephemeral
/// references through the ephemeral table fed by the meld pipeline's
/// allocators.
///
/// The intention cache is lock-striped (see ResolverOptions::shards): an
/// intention sequence maps to one shard holding its cache entry, LRU
/// position and directory entry, so `Resolve` takes exactly one shard lock,
/// and calls for different sequences from the premeld workers, the
/// final-meld thread and the executors proceed in parallel. Eviction is LRU
/// per shard; with capacity split evenly across shards and sequences
/// striped round-robin (`seq % shards`), the aggregate behaves like a
/// global LRU for the sequential access patterns that matter, and the
/// global capacity bound is exact.
///
/// The ephemeral table is dense: ephemeral ids are (meld thread, per-thread
/// sequence) pairs (§3.4), so each allocator thread id gets its own table
/// indexed by the sequence in fixed-size chunks under one lock per table.
/// Registering is one slot store, a lookup is index arithmetic, and a sweep
/// walks contiguous slots and frees whole dead chunks. Checkpoint bootstrap
/// registers sparse ids the same way (untouched chunks stay unallocated).
///
/// Liveness (DESIGN.md "Meld hot path"): an ephemeral must stay resolvable
/// while any retained state can reach it, and reachability is not a
/// reference count — a lazy edge (`Ref::Lazy`) holds no reference, and
/// v3-decoded intention nodes carry every external edge lazily. So each
/// slot records whether the node reached a published state and, once a
/// later meld drops it, the first state that no longer holds it
/// (`NotePublished`, fed by the pipeline's PublishDelta). A published node
/// is swept once that state is at or below the oldest retained state; a
/// node that never reached a published state can have no lazy referrer and
/// goes when the table holds its only reference.
///
/// Ephemeral nodes cannot be refetched (they are never logged, §2); a
/// reference to a swept ephemeral yields `SnapshotTooOld`, which surfaces to
/// the transaction as an abort-and-retry — the same contract as a retired
/// snapshot.
///
/// Every internal lock acquisition bumps the thread-local counter in
/// common/lock_counter.h, which is how the pipeline attributes resolver
/// locking to the stage that performed it.
class ServerResolver : public NodeResolver {
 public:
  ServerResolver(SharedLog* log, ResolverOptions options);
  ~ServerResolver() override;

  ServerResolver(const ServerResolver&) = delete;
  ServerResolver& operator=(const ServerResolver&) = delete;

  Result<NodePtr> Resolve(VersionId vn) override;

  /// Cache-only lookup (no log refetch): serves decode-time
  /// pre-materialization of external references. Null on any miss.
  [[nodiscard]] NodePtr TryResolveCached(VersionId vn) override;

  /// Records that intention `seq` lives in the given log block positions
  /// (called by the log reader as intentions complete).
  void RecordIntentionBlocks(uint64_t seq, std::vector<uint64_t> positions,
                             uint64_t txn_id);

  /// Caches a freshly deserialized intention's node array (index = node
  /// index within the intention). Thread-safe: with parallel decode the
  /// premeld workers call this concurrently. For flat (wire v3) intentions
  /// pass the view instead of (or alongside) the node array: cached lookups
  /// then materialize lazily through `FlatIntentionView::NodeAt`, which
  /// takes no locks, so it is served directly under the shard lock.
  void CacheIntention(uint64_t seq, std::vector<NodePtr> nodes,
                      std::shared_ptr<FlatIntentionView> flat = nullptr);

  /// Registers an ephemeral node (meld allocator registrar hook). The node
  /// counts as unpublished until a PublishDelta names it.
  void RegisterEphemeral(const NodePtr& n);
  /// Registers an ephemeral node of an already published state — the
  /// checkpoint bootstrap path, whose reconstructed tree is the initial
  /// state of the new server.
  void RegisterPublishedEphemeral(const NodePtr& n);
  /// Applies one published final meld's liveness delta: `born` ids are now
  /// in a published state; `replaced` ids are absent from state
  /// `first_seq` and every later one.
  void NotePublished(const PublishDelta& delta);
  /// The retention window the sweep honours: ephemerals replaced at or
  /// below `states->OldestRetained()` are unreachable from every retained
  /// state. Without a window (null, the default) published ephemerals are
  /// never swept.
  void TrackRetention(const StateTable* states);

  /// Installs the checkpoint-anchored resolution floor: the complete
  /// vn -> node map of checkpoint state S (`state_seq`), replacing any
  /// previous pin. After the log prefix below S's blocks is truncated, a
  /// lazy reference created at some c <= S can no longer be refetched from
  /// the log — but any such node alive in a retained state Q >= S was
  /// already alive at S (versions are never resurrected), so the pinned map
  /// answers exactly the lookups truncation made impossible. `Resolve`
  /// falls back to the pin when the log returns `Truncated` or the
  /// directory entry is gone; `TryResolveCached` consults it on any miss.
  void ReplacePinnedBase(uint64_t state_seq,
                         std::unordered_map<VersionId, NodePtr> nodes);
  uint64_t pinned_state_seq() const;
  size_t pinned_node_count() const;

  /// Drops the ephemeral entries no retained state can reach (see the class
  /// comment) and frees chunks left empty. Returns the number dropped. Safe
  /// at any time; affects only this server's memory, never cross-server
  /// state.
  size_t SweepEphemerals();

  struct DirectoryExport {
    uint64_t seq;
    uint64_t txn_id;
    std::vector<uint64_t> positions;
  };
  /// Snapshot of the intention directory (for checkpoints), sorted by
  /// sequence so checkpoint payload bytes are deterministic.
  std::vector<DirectoryExport> ExportDirectory() const;
  /// Restores directory entries (bootstrap path).
  void ImportDirectory(const std::vector<DirectoryExport>& entries);

  size_t cached_intentions() const;
  size_t ephemeral_count() const;
  /// Publishes the resolver gauges under `prefix` (MetricsRegistry provider
  /// building block; see common/registry.h). Thread-safe.
  void EmitMetrics(const std::string& prefix, const MetricEmit& emit) const;
  uint64_t refetches() const {
    // Relaxed: a monotonic stats counter read with no ordering dependency.
    return refetches_.load(std::memory_order_relaxed);
  }
  /// Ephemeral entries dropped by every sweep so far.
  uint64_t ephemerals_swept() const {
    // Relaxed: a monotonic stats counter read with no ordering dependency.
    return swept_.load(std::memory_order_relaxed);
  }

 private:
  struct CachedIntention {
    /// Eagerly materialized nodes (v2 decode). Empty when `flat` is set.
    std::vector<NodePtr> nodes;
    /// Flat (v3) view: nodes materialize on first lookup, so a cached
    /// intention that is never dereferenced costs no pool allocations.
    std::shared_ptr<FlatIntentionView> flat;
    std::list<uint64_t>::iterator lru_pos;
  };
  struct DirectoryEntry {
    std::vector<uint64_t> positions;
    uint64_t txn_id = 0;
  };
  /// One lock stripe of the intention cache: the cache entries, LRU order
  /// and directory entries of the sequences mapping to this shard.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, CachedIntention> intentions GUARDED_BY(mu);
    std::list<uint64_t> lru GUARDED_BY(mu);  // Front = most recently used.
    std::unordered_map<uint64_t, DirectoryEntry> directory GUARDED_BY(mu);
    /// This shard's slice of intention_cache_capacity (set once at
    /// construction, read-only afterwards).
    // hyder-check: allow(guard-completeness): set at construction, read-only
    size_t capacity = 0;
  };
  /// One ephemeral id's entry. `node` is null for an unused or swept slot;
  /// `replaced_at` is the liveness record: kUnpublished, kInState, or the
  /// first state without the node.
  struct EphemeralSlot {
    NodePtr node;
    uint64_t replaced_at = 0;
  };
  static constexpr uint64_t kUnpublished = 0;
  static constexpr uint64_t kInState = ~uint64_t(0);
  static constexpr int kChunkBits = 10;
  static constexpr uint64_t kChunkSlots = uint64_t(1) << kChunkBits;
  struct EphemeralChunk {
    EphemeralSlot slots[kChunkSlots];
    uint32_t used = 0;  ///< Slots with a node.
  };
  /// The ephemeral ids of one allocator thread: chunk `first_chunk + i` of
  /// `chunks` holds sequences [(first_chunk + i) << kChunkBits, ...). Null
  /// entries are chunks never touched or already freed.
  struct EphemeralTable {
    mutable Mutex mu;
    uint64_t first_chunk GUARDED_BY(mu) = 0;
    std::deque<std::unique_ptr<EphemeralChunk>> chunks GUARDED_BY(mu);
    /// One past the highest registered sequence: the chunk holding it is
    /// still filling, so a sweep that empties it keeps it.
    uint64_t next_seq GUARDED_BY(mu) = 0;
    size_t live GUARDED_BY(mu) = 0;
  };
  /// Tables by thread id, two levels so the 15-bit id space costs nothing
  /// until used: block `id >> kTableBlockBits`, entry `id & mask`. Entries
  /// are installed once (CAS) and live as long as the resolver.
  static constexpr int kTableBlockBits = 8;
  static constexpr size_t kTableBlocks =
      (size_t(1) << VersionId::kThreadBits) >> kTableBlockBits;
  struct TableBlock {
    std::array<std::atomic<EphemeralTable*>, size_t(1) << kTableBlockBits>
        tables{};
  };

  /// The table of `thread_id`; null when absent and `create` is false.
  EphemeralTable* TableFor(uint32_t thread_id, bool create) const;
  /// The chunk holding `seq`, created when `create`; null when absent and
  /// `create` is false.
  static EphemeralChunk* ChunkLocked(EphemeralTable& table, uint64_t seq,
                                     bool create) REQUIRES(table.mu);
  /// The slot of `seq`; null when its chunk is absent.
  static EphemeralSlot* SlotLocked(EphemeralTable& table, uint64_t seq)
      REQUIRES(table.mu);
  void Register(const NodePtr& n, uint64_t replaced_at);
  NodePtr LookupEphemeral(VersionId vn) const;
  /// Sweeps one table against the oldest retained state; returns the
  /// number of entries dropped.
  size_t SweepTable(EphemeralTable& table, uint64_t oldest_retained);

  Shard& ShardFor(uint64_t seq) const {
    return *shards_[seq % shards_.size()];
  }
  Result<NodePtr> ResolveLogged(VersionId vn);
  NodePtr LookupPinned(VersionId vn) const EXCLUDES(pinned_mu_);
  /// What a refetch decoded: either an eager node array (v2 payload) or a
  /// flat view (v3 payload) whose nodes materialize on demand.
  struct DecodedIntention {
    std::vector<NodePtr> nodes;
    std::shared_ptr<FlatIntentionView> flat;
  };
  /// The random log read path (§1): fetches `seq`'s blocks and decodes
  /// them. Runs with **no shard lock held**, so the decode gets `this` as
  /// its resolver and pre-materializes external references cache-only
  /// (TryResolveCached) — the wiring the old decode-under-the-lock path
  /// had to forgo to stay deadlock-free.
  Result<DecodedIntention> RefetchIntention(uint64_t seq,
                                            const DirectoryEntry& dir);
  /// Node `index` of a cached entry: through the flat view when present
  /// (lock-free, lazy), else the eager array. Null when out of range.
  NodePtr CachedNode(const CachedIntention& entry, uint32_t index) const;
  void TouchLocked(Shard& shard, uint64_t seq) REQUIRES(shard.mu);
  void EvictLocked(Shard& shard) REQUIRES(shard.mu);

  SharedLog* const log_;
  const ResolverOptions options_;

  /// Lock order: at most one shard or table lock is ever held at a time
  /// (the intention shards and the ephemeral tables are disjoint id spaces,
  /// and no operation spans two sequences' shards while holding both).
  /// `pinned_mu_` is likewise only ever taken alone: the pinned fallback
  /// runs after the shard lock is released.
  /// Sized at construction and never resized; each element synchronizes
  /// through its own embedded mutex.
  // hyder-check: allow(guard-completeness): fixed topology, per-element mu
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Installed once per block by CAS (lookups of absent ids install
  /// nothing), freed in the destructor.
  // hyder-check: allow(guard-completeness): array of atomics, CAS-installed
  mutable std::array<std::atomic<TableBlock*>, kTableBlocks> table_blocks_{};
  /// Set once before the pipeline runs (TrackRetention); read by sweeps.
  std::atomic<const StateTable*> retention_{nullptr};
  mutable Mutex pinned_mu_;
  /// Checkpoint state S backing truncated-prefix resolution (see
  /// ReplacePinnedBase). 0 = nothing pinned.
  uint64_t pinned_state_seq_ GUARDED_BY(pinned_mu_) = 0;
  std::unordered_map<VersionId, NodePtr> pinned_nodes_ GUARDED_BY(pinned_mu_);
  /// Atomic (not guarded): incremented under a shard lock but read by the
  /// stats accessor without it.
  std::atomic<uint64_t> refetches_{0};
  std::atomic<uint64_t> swept_{0};
};

}  // namespace hyder

#endif  // HYDER2_SERVER_RESOLVER_H_
