#include "server/resolver.h"

#include <algorithm>
#include <utility>

#include "common/lock_counter.h"
#include "txn/codec.h"
#include "txn/flat_view.h"

namespace hyder {

namespace {
/// A MutexLock that also charges the acquisition to the thread-local
/// resolver-lock counter (see common/lock_counter.h): the pipeline's
/// `fm_resolver_locks` stat is the per-stage delta of this counter.
class SCOPED_CAPABILITY CountedLock {
 public:
  explicit CountedLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
    BumpResolverLockCount();
  }
  ~CountedLock() RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};
}  // namespace

ServerResolver::ServerResolver(SharedLog* log, ResolverOptions options)
    : log_(log), options_(options) {
  // Each shard must be able to hold at least one intention, or a single
  // resolve could evict the entry it just materialized.
  const size_t capacity = std::max<size_t>(1, options_.intention_cache_capacity);
  const size_t shard_count =
      std::min(std::max<size_t>(1, options_.shards), capacity);
  shards_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    // Split the capacity exactly (base + one extra for the first
    // `capacity % shard_count` shards) so the global bound
    // `cached_intentions() <= intention_cache_capacity` stays precise.
    shard->capacity =
        capacity / shard_count + (s < capacity % shard_count ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

ServerResolver::~ServerResolver() {
  for (auto& block_slot : table_blocks_) {
    // relaxed: destruction runs with exclusive access; every install
    // happened-before the last use of the resolver.
    TableBlock* block = block_slot.load(std::memory_order_relaxed);
    if (block == nullptr) continue;
    // relaxed: exclusive access, as above.
    for (auto& table : block->tables) {
      delete table.load(std::memory_order_relaxed);
    }
    delete block;
  }
}

ServerResolver::EphemeralTable* ServerResolver::TableFor(uint32_t thread_id,
                                                         bool create) const {
  std::atomic<TableBlock*>& block_slot =
      table_blocks_[thread_id >> kTableBlockBits];
  TableBlock* block = block_slot.load(std::memory_order_acquire);
  if (block == nullptr) {
    if (!create) return nullptr;
    auto fresh = std::make_unique<TableBlock>();
    if (block_slot.compare_exchange_strong(block, fresh.get(),
                                           std::memory_order_acq_rel)) {
      block = fresh.release();
    }  // Else another registrar won; `block` now holds its block.
  }
  std::atomic<EphemeralTable*>& table_slot =
      block->tables[thread_id & ((1u << kTableBlockBits) - 1)];
  EphemeralTable* table = table_slot.load(std::memory_order_acquire);
  if (table == nullptr && create) {
    auto fresh = std::make_unique<EphemeralTable>();
    if (table_slot.compare_exchange_strong(table, fresh.get(),
                                           std::memory_order_acq_rel)) {
      table = fresh.release();
    }
  }
  return table;
}

ServerResolver::EphemeralChunk* ServerResolver::ChunkLocked(
    EphemeralTable& table, uint64_t seq, bool create) {
  const uint64_t chunk = seq >> kChunkBits;
  if (table.chunks.empty()) {
    if (!create) return nullptr;
    table.first_chunk = chunk;
  }
  if (chunk < table.first_chunk) {
    // Only sparse (bootstrap) registration reaches below the front.
    if (!create) return nullptr;
    for (; table.first_chunk > chunk; --table.first_chunk) {
      table.chunks.push_front(nullptr);
    }
  }
  const uint64_t at = chunk - table.first_chunk;
  if (at >= table.chunks.size()) {
    if (!create) return nullptr;
    table.chunks.resize(at + 1);
  }
  std::unique_ptr<EphemeralChunk>& c = table.chunks[at];
  if (c == nullptr && create) c = std::make_unique<EphemeralChunk>();
  return c.get();
}

ServerResolver::EphemeralSlot* ServerResolver::SlotLocked(
    EphemeralTable& table, uint64_t seq) {
  EphemeralChunk* chunk = ChunkLocked(table, seq, /*create=*/false);
  return chunk == nullptr ? nullptr : &chunk->slots[seq & (kChunkSlots - 1)];
}

Result<NodePtr> ServerResolver::Resolve(VersionId vn) {
  if (vn.IsNull()) {
    return Status::InvalidArgument("cannot resolve a null version id");
  }
  if (vn.IsEphemeral()) {
    NodePtr n = LookupEphemeral(vn);
    if (n == nullptr) {
      return Status::SnapshotTooOld("ephemeral node " + vn.ToString() +
                                    " has been retired");
    }
    return n;
  }
  return ResolveLogged(vn);
}

NodePtr ServerResolver::TryResolveCached(VersionId vn) {
  if (vn.IsNull()) return nullptr;
  if (vn.IsEphemeral()) return LookupEphemeral(vn);
  Shard& shard = ShardFor(vn.intention_seq());
  {
    CountedLock lock(shard.mu);
    auto it = shard.intentions.find(vn.intention_seq());
    if (it != shard.intentions.end()) {
      NodePtr n = CachedNode(it->second, vn.node_index());
      if (n == nullptr) return nullptr;
      TouchLocked(shard, vn.intention_seq());
      return n;
    }
  }
  // No refetch here; the pinned checkpoint base is still cache-speed.
  return LookupPinned(vn);
}

NodePtr ServerResolver::CachedNode(const CachedIntention& entry,
                                   uint32_t index) const {
  if (entry.flat != nullptr) {
    // NodeAt takes no locks and never calls back into this resolver, so
    // the lazy materialization is safe under the caller's shard lock.
    if (index >= entry.flat->node_count()) return nullptr;
    return entry.flat->NodeAt(index);
  }
  if (index >= entry.nodes.size()) return nullptr;
  return entry.nodes[index];
}

NodePtr ServerResolver::LookupEphemeral(VersionId vn) const {
  EphemeralTable* table = TableFor(vn.thread_id(), /*create=*/false);
  if (table == nullptr) return nullptr;
  CountedLock lock(table->mu);
  const EphemeralSlot* slot = SlotLocked(*table, vn.sequence());
  return slot == nullptr ? nullptr : slot->node;
}

NodePtr ServerResolver::LookupPinned(VersionId vn) const {
  CountedLock lock(pinned_mu_);
  auto it = pinned_nodes_.find(vn);
  return it == pinned_nodes_.end() ? nullptr : it->second;
}

Result<NodePtr> ServerResolver::ResolveLogged(VersionId vn) {
  const uint64_t seq = vn.intention_seq();
  Shard& shard = ShardFor(seq);
  const auto out_of_range = [&vn] {
    return Status::Corruption("node index " +
                              std::to_string(vn.node_index()) +
                              " out of range in intention " +
                              std::to_string(vn.intention_seq()));
  };
  Status miss = Status::OK();
  DirectoryEntry dir;
  bool have_dir = false;
  {
    CountedLock lock(shard.mu);
    auto it = shard.intentions.find(seq);
    if (it != shard.intentions.end()) {
      TouchLocked(shard, seq);
      NodePtr n = CachedNode(it->second, vn.node_index());
      if (n == nullptr) return out_of_range();
      return n;
    }
    auto d = shard.directory.find(seq);
    if (d == shard.directory.end()) {
      miss = Status::NotFound("no directory entry for intention " +
                              std::to_string(seq));
    } else {
      // Copy the entry so the fetch + decode can run without the lock.
      dir = d->second;
      have_dir = true;
    }
  }
  if (have_dir) {
    auto decoded = RefetchIntention(seq, dir);
    if (decoded.ok()) {
      CountedLock lock(shard.mu);
      auto [it, inserted] = shard.intentions.try_emplace(seq);
      if (inserted) {
        it->second.nodes = std::move(decoded->nodes);
        it->second.flat = std::move(decoded->flat);
        shard.lru.push_front(seq);
        it->second.lru_pos = shard.lru.begin();
        // Eviction never removes the most recently used entry, so `it`
        // survives (erase invalidates only the erased iterators).
        EvictLocked(shard);
      } else {
        // A concurrent resolve refetched the same sequence while the lock
        // was down; first insert wins and this decode is discarded.
        TouchLocked(shard, seq);
      }
      NodePtr n = CachedNode(it->second, vn.node_index());
      if (n == nullptr) return out_of_range();
      return n;
    }
    miss = decoded.status();
  }
  // Only the two shapes truncation legitimately produces fall through to
  // the pinned base: the directory entry was retired with the prefix
  // (NotFound) or the log positions themselves were reclaimed
  // (Truncated). Anything else — Corruption, DataLoss, I/O — surfaces.
  if (!miss.IsNotFound() && !miss.IsTruncated()) return miss;
  if (NodePtr pinned = LookupPinned(vn); pinned != nullptr) return pinned;
  return miss;
}

Result<ServerResolver::DecodedIntention> ServerResolver::RefetchIntention(
    uint64_t seq, const DirectoryEntry& dir) {
  // Refetch from the log: the paper's "random access to the log" path
  // (§1) taken when data is not in this server's partial cached copy.
  // Relaxed: stats only; cache mutations are ordered by the shard lock.
  refetches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> chunks(dir.positions.size());
  for (uint64_t pos : dir.positions) {
    // Transient read errors retry; DataLoss and the like surface — the
    // refetch has no other copy to fall back on.
    HYDER_ASSIGN_OR_RETURN(
        std::string block,
        RetryTransient(
            options_.log_retry, [&] { return log_->Read(pos); },
            [this](const Status&) { log_->RecordRetry(); }));
    HYDER_ASSIGN_OR_RETURN(BlockHeader h, DecodeBlockHeader(block));
    if (h.index >= chunks.size()) {
      return Status::Corruption("block index out of range on refetch");
    }
    chunks[h.index] = block.substr(kBlockHeaderSize, h.chunk_len);
  }
  std::string payload;
  for (std::string& c : chunks) payload.append(c);
  // No shard lock is held here, so the decode gets this resolver and
  // pre-materializes external references cache-only (TryResolveCached may
  // take any shard's lock, including the caller's). A flat (v3) payload
  // materializes nothing beyond the root: the cache holds the view, and
  // nodes appear only if something actually dereferences them.
  DecodedIntention out;
  HYDER_ASSIGN_OR_RETURN(
      IntentionPtr intent,
      DeserializeIntention(payload, seq,
                           static_cast<uint32_t>(chunks.size()), this,
                           dir.txn_id, &out.nodes));
  if (!intent->flats.empty()) out.flat = intent->flats.front().second;
  return out;
}

void ServerResolver::TouchLocked(Shard& shard, uint64_t seq) {
  auto it = shard.intentions.find(seq);
  shard.lru.erase(it->second.lru_pos);
  shard.lru.push_front(seq);
  it->second.lru_pos = shard.lru.begin();
}

void ServerResolver::EvictLocked(Shard& shard) {
  while (shard.intentions.size() > shard.capacity) {
    uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.intentions.erase(victim);
  }
}

void ServerResolver::RecordIntentionBlocks(uint64_t seq,
                                           std::vector<uint64_t> positions,
                                           uint64_t txn_id) {
  Shard& shard = ShardFor(seq);
  CountedLock lock(shard.mu);
  shard.directory[seq] = DirectoryEntry{std::move(positions), txn_id};
}

void ServerResolver::CacheIntention(uint64_t seq, std::vector<NodePtr> nodes,
                                    std::shared_ptr<FlatIntentionView> flat) {
  Shard& shard = ShardFor(seq);
  CountedLock lock(shard.mu);
  if (shard.intentions.count(seq) != 0) return;
  CachedIntention entry;
  entry.nodes = std::move(nodes);
  entry.flat = std::move(flat);
  shard.lru.push_front(seq);
  entry.lru_pos = shard.lru.begin();
  shard.intentions.emplace(seq, std::move(entry));
  EvictLocked(shard);
}

void ServerResolver::ReplacePinnedBase(
    uint64_t state_seq, std::unordered_map<VersionId, NodePtr> nodes) {
  // Swap under the lock, destroy the displaced map outside it: dropping a
  // pin can release the last reference to millions of nodes.
  std::unordered_map<VersionId, NodePtr> displaced;
  {
    CountedLock lock(pinned_mu_);
    displaced.swap(pinned_nodes_);
    pinned_nodes_ = std::move(nodes);
    pinned_state_seq_ = state_seq;
  }
}

uint64_t ServerResolver::pinned_state_seq() const {
  CountedLock lock(pinned_mu_);
  return pinned_state_seq_;
}

size_t ServerResolver::pinned_node_count() const {
  CountedLock lock(pinned_mu_);
  return pinned_nodes_.size();
}

void ServerResolver::RegisterEphemeral(const NodePtr& n) {
  Register(n, kUnpublished);
}

void ServerResolver::RegisterPublishedEphemeral(const NodePtr& n) {
  Register(n, kInState);
}

void ServerResolver::Register(const NodePtr& n, uint64_t replaced_at) {
  const VersionId vn = n->vn();
  EphemeralTable* table = TableFor(vn.thread_id(), /*create=*/true);
  NodePtr displaced;  // Released after the lock.
  {
    CountedLock lock(table->mu);
    EphemeralChunk* chunk = ChunkLocked(*table, vn.sequence(), true);
    EphemeralSlot& slot = chunk->slots[vn.sequence() & (kChunkSlots - 1)];
    displaced = std::exchange(slot.node, n);
    slot.replaced_at = replaced_at;
    if (displaced == nullptr) {
      table->live++;
      chunk->used++;
    }
    table->next_seq = std::max(table->next_seq, vn.sequence() + 1);
  }
}

void ServerResolver::NotePublished(const PublishDelta& delta) {
  // (raw vn, value) marks, sorted so each table's lock is taken once per
  // run of its ids.
  std::vector<std::pair<uint64_t, uint64_t>> marks;
  marks.reserve(delta.born.size() + delta.replaced.size());
  for (VersionId vn : delta.born) marks.emplace_back(vn.raw(), kInState);
  for (VersionId vn : delta.replaced) {
    marks.emplace_back(vn.raw(), delta.first_seq);
  }
  // A replaced id that never reached a state is a meld-internal copy (group
  // meld rebasing the later member's deletes onto the earlier member's
  // premeld nodes); the state lost what that copy was derived from, so the
  // mark passes on to its ssvs. Same key all along the chain, so the new
  // state holds none of them. The chains are short; the bound is a guard.
  std::vector<std::pair<uint64_t, uint64_t>> follow;
  for (int round = 0; round < 4 && !marks.empty(); ++round) {
    std::sort(marks.begin(), marks.end());
    size_t i = 0;
    while (i < marks.size()) {
      const uint32_t thread = VersionId::FromRaw(marks[i].first).thread_id();
      size_t end = i;
      while (end < marks.size() &&
             VersionId::FromRaw(marks[end].first).thread_id() == thread) {
        ++end;
      }
      EphemeralTable* table = TableFor(thread, /*create=*/false);
      if (table == nullptr) {
        i = end;
        continue;
      }
      CountedLock lock(table->mu);
      for (; i < end; ++i) {
        const uint64_t seq = VersionId::FromRaw(marks[i].first).sequence();
        EphemeralSlot* slot = SlotLocked(*table, seq);
        if (slot == nullptr || slot->node == nullptr) continue;
        const uint64_t value = marks[i].second;
        if (value == kInState) {
          if (slot->replaced_at == kUnpublished) slot->replaced_at = kInState;
        } else if (slot->replaced_at == kUnpublished) {
          ForEachSsv(*slot->node, [&](VersionId s) {
            if (s.IsEphemeral()) follow.emplace_back(s.raw(), value);
          });
        } else if (slot->replaced_at == kInState ||
                   value < slot->replaced_at) {
          // The first replacement is the real one: membership in the
          // published states is one contiguous run (no version returns).
          slot->replaced_at = value;
        }
      }
    }
    marks.swap(follow);
    follow.clear();
  }
}

void ServerResolver::TrackRetention(const StateTable* states) {
  retention_.store(states, std::memory_order_release);
}

size_t ServerResolver::SweepTable(EphemeralTable& table,
                                  uint64_t oldest_retained) {
  size_t dropped = 0;
  CountedLock lock(table.mu);
  // The chunk still receiving registrations is kept even when empty.
  const uint64_t filling =
      table.next_seq == 0 ? 0 : (table.next_seq - 1) >> kChunkBits;
  // Newest first, releasing as we go: meld creates children before their
  // parents, so dropping a garbage parent leaves its (older) children held
  // by the table alone by the time the walk reaches them, and a whole
  // garbage subtree goes in one sweep instead of one level per sweep.
  for (size_t c = table.chunks.size(); c-- > 0;) {
    std::unique_ptr<EphemeralChunk>& chunk = table.chunks[c];
    if (chunk == nullptr) continue;
    for (size_t i = kChunkSlots; i-- > 0;) {
      EphemeralSlot& slot = chunk->slots[i];
      if (slot.node == nullptr) continue;
      const uint64_t r = slot.replaced_at;
      // Unpublished: no state holds it and no lazy edge names it, so the
      // table's own reference being the last one means it is garbage.
      // Published: dropped once the first state without it is at or below
      // the oldest retained state, i.e. every state that held it retired.
      const bool drop = r == kUnpublished ? slot.node->RefCount() == 1
                                          : r != kInState &&
                                                r <= oldest_retained;
      if (!drop) continue;
      slot.node.Reset();
      chunk->used--;
      dropped++;
    }
    if (chunk->used == 0 && table.first_chunk + c != filling) chunk.reset();
  }
  while (!table.chunks.empty() && table.chunks.front() == nullptr) {
    table.chunks.pop_front();
    table.first_chunk++;
  }
  table.live -= dropped;
  return dropped;
}

size_t ServerResolver::SweepEphemerals() {
  const StateTable* states = retention_.load(std::memory_order_acquire);
  // No window: the state after which nothing counts as retired is 0, so
  // published entries stay (a replacement is always recorded at >= 1).
  const uint64_t oldest = states == nullptr ? 0 : states->OldestRetained();
  size_t dropped = 0;
  // Ascending thread ids: final meld (0), group meld (1), then premeld
  // (2..): a garbage node's children live in its own table or a later one.
  for (auto& block_slot : table_blocks_) {
    TableBlock* block = block_slot.load(std::memory_order_acquire);
    if (block == nullptr) continue;
    for (auto& table_slot : block->tables) {
      EphemeralTable* table = table_slot.load(std::memory_order_acquire);
      if (table != nullptr) dropped += SweepTable(*table, oldest);
    }
  }
  // Relaxed: a monotonic stats counter with no ordering dependency.
  swept_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

std::vector<ServerResolver::DirectoryExport> ServerResolver::ExportDirectory()
    const {
  std::vector<DirectoryExport> out;
  for (const auto& shard : shards_) {
    CountedLock lock(shard->mu);
    out.reserve(out.size() + shard->directory.size());
    for (const auto& [seq, entry] : shard->directory) {
      out.push_back(DirectoryExport{seq, entry.txn_id, entry.positions});
    }
  }
  // Gathered shard by shard (never holding two shard locks), then sorted so
  // the checkpoint payload is byte-deterministic regardless of shard count.
  // The snapshot is not atomic across shards, which matches the original
  // single-mutex contract: checkpoints run against a quiesced cut.
  std::sort(out.begin(), out.end(),
            [](const DirectoryExport& a, const DirectoryExport& b) {
              return a.seq < b.seq;
            });
  return out;
}

void ServerResolver::ImportDirectory(
    const std::vector<DirectoryExport>& entries) {
  for (const DirectoryExport& e : entries) {
    Shard& shard = ShardFor(e.seq);
    CountedLock lock(shard.mu);
    shard.directory[e.seq] = DirectoryEntry{e.positions, e.txn_id};
  }
}

size_t ServerResolver::cached_intentions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    CountedLock lock(shard->mu);
    total += shard->intentions.size();
  }
  return total;
}

size_t ServerResolver::ephemeral_count() const {
  size_t total = 0;
  for (const auto& block_slot : table_blocks_) {
    const TableBlock* block = block_slot.load(std::memory_order_acquire);
    if (block == nullptr) continue;
    for (const auto& table_slot : block->tables) {
      const EphemeralTable* table =
          table_slot.load(std::memory_order_acquire);
      if (table == nullptr) continue;
      CountedLock lock(table->mu);
      total += table->live;
    }
  }
  return total;
}

void ServerResolver::EmitMetrics(const std::string& prefix,
                                 const MetricEmit& emit) const {
  const std::string dot = prefix.empty() ? "" : prefix + ".";
  emit(dot + "cached_intentions", double(cached_intentions()));
  emit(dot + "ephemeral_count", double(ephemeral_count()));
  emit(dot + "ephemerals_swept", double(ephemerals_swept()));
  emit(dot + "refetches", double(refetches()));
  emit(dot + "pinned_state_seq", double(pinned_state_seq()));
  emit(dot + "pinned_nodes", double(pinned_node_count()));
}

}  // namespace hyder
