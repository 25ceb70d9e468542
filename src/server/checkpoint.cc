#include "server/checkpoint.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/varint.h"
#include "txn/codec.h"

namespace hyder {

namespace {

constexpr uint32_t kCheckpointMagic = 0xC4C4C4C4;

/// Flags-byte bit marking a wide page record. Binary records use bits 0-2
/// (color, left present, right present) and never set this bit.
constexpr uint8_t kCheckpointWideBit = 1u << 3;

/// Post-order serialization of a fully materialized state tree. Children
/// are encoded as post-order indices (like the intention codec); the flags
/// byte carries color and child presence for binary nodes, or the wide bit.
///
/// Wide page record: flags byte (wide bit), varint cap / slot count /
/// page vn, `count` slots {key, cv, payload len, payload}, `count`+1
/// presence bytes each followed by a post-order index when present. Slot
/// ssv/flags and gap-read flags are dropped, like binary ssv/flags: a
/// checkpointed state is never Inside a later intention's group, so meld
/// only ever consults its vn and slot cv (content checks) — which survive.
Status SerializeState(NodeResolver* resolver, const NodePtr& n,
                      std::unordered_map<const Node*, uint32_t>& index,
                      std::string* out, uint64_t* count) {
  if (!n) return Status::OK();
  if (n->is_wide()) {
    const WideExt& e = *n->wide();
    std::vector<NodePtr> kids(e.count() + 1);
    for (int i = 0; i <= e.count(); ++i) {
      HYDER_ASSIGN_OR_RETURN(kids[i], e.child(i).Get(resolver));
      HYDER_RETURN_IF_ERROR(
          SerializeState(resolver, kids[i], index, out, count));
    }
    out->push_back(static_cast<char>(kCheckpointWideBit));
    PutVarint64(out, static_cast<uint64_t>(e.cap()));
    PutVarint64(out, static_cast<uint64_t>(e.count()));
    PutVarint64(out, n->vn().raw());
    for (int i = 0; i < e.count(); ++i) {
      const WideSlot& s = e.slot(i);
      PutVarint64(out, s.key);
      PutVarint64(out, s.meta.cv.raw());
      PutVarint64(out, s.payload().size());
      out->append(s.payload());
    }
    for (int i = 0; i <= e.count(); ++i) {
      out->push_back(kids[i] ? 1 : 0);
      if (kids[i]) PutVarint64(out, index.at(kids[i].get()));
    }
    index[n.get()] = static_cast<uint32_t>(index.size());
    ++*count;
    return Status::OK();
  }
  HYDER_ASSIGN_OR_RETURN(NodePtr left, n->left().Get(resolver));
  HYDER_RETURN_IF_ERROR(SerializeState(resolver, left, index, out, count));
  HYDER_ASSIGN_OR_RETURN(NodePtr right, n->right().Get(resolver));
  HYDER_RETURN_IF_ERROR(SerializeState(resolver, right, index, out, count));

  uint8_t flags = 0;
  if (n->color() == Color::kRed) flags |= 1;
  if (left) flags |= 2;
  if (right) flags |= 4;
  out->push_back(static_cast<char>(flags));
  PutVarint64(out, n->key());
  PutVarint64(out, n->vn().raw());
  PutVarint64(out, n->cv().raw());
  PutVarint64(out, n->payload().size());
  out->append(n->payload());
  if (left) PutVarint64(out, index.at(left.get()));
  if (right) PutVarint64(out, index.at(right.get()));
  index[n.get()] = static_cast<uint32_t>(index.size());
  ++*count;
  return Status::OK();
}

Result<Ref> DeserializeState(const char*& p, const char* limit,
                             uint64_t node_count, ServerResolver* resolver,
                             std::unordered_map<VersionId, NodePtr>* pinned) {
  std::vector<NodePtr> nodes;
  nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    if (p >= limit) return Status::Corruption("truncated checkpoint node");
    const uint8_t flags = static_cast<uint8_t>(*p++);
    if (flags & kCheckpointWideBit) {
      uint64_t cap = 0, slot_count = 0, vn = 0;
      if ((p = GetVarint64(p, limit, &cap)) == nullptr ||
          (p = GetVarint64(p, limit, &slot_count)) == nullptr ||
          (p = GetVarint64(p, limit, &vn)) == nullptr) {
        return Status::Corruption("truncated checkpoint page fields");
      }
      if (cap < 3 || cap > 64 || slot_count == 0 || slot_count > cap) {
        return Status::Corruption("bad checkpoint page shape");
      }
      NodePtr n = MakeWideNode(static_cast<int>(cap));
      WideExt& e = *n->wide();
      n->set_vn(VersionId::FromRaw(vn));
      e.set_count(static_cast<int>(slot_count));
      for (uint64_t s = 0; s < slot_count; ++s) {
        uint64_t key = 0, cv = 0, len = 0;
        if ((p = GetVarint64(p, limit, &key)) == nullptr ||
            (p = GetVarint64(p, limit, &cv)) == nullptr ||
            (p = GetVarint64(p, limit, &len)) == nullptr) {
          return Status::Corruption("truncated checkpoint slot fields");
        }
        if (len > size_t(limit - p)) {
          return Status::Corruption("truncated checkpoint slot payload");
        }
        WideSlot& sl = e.slot(static_cast<int>(s));
        sl.key = key;
        sl.set_payload(std::string_view(p, len));
        p += len;
        // A checkpointed state carries committed content only: provenance
        // (ssv) and the Altered/DependsOn flags are transaction-relative
        // and deliberately reset together with cv so the slot's meld
        // triple is coherent for the next intention melded on top.
        sl.meta.cv = VersionId::FromRaw(cv);
        sl.meta.ssv = VersionId();
        sl.meta.flags = 0;
      }
      for (uint64_t ci = 0; ci <= slot_count; ++ci) {
        if (p >= limit) {
          return Status::Corruption("truncated checkpoint child byte");
        }
        const uint8_t present = static_cast<uint8_t>(*p++);
        if (!present) continue;
        uint64_t child = 0;
        if ((p = GetVarint64(p, limit, &child)) == nullptr || child >= i) {
          return Status::Corruption("bad checkpoint child index");
        }
        e.child(static_cast<int>(ci)).Reset(Ref::To(nodes[child]));
      }
      if (n->vn().IsEphemeral()) resolver->RegisterPublishedEphemeral(n);
      if (!n->vn().IsNull()) (*pinned)[n->vn()] = n;
      nodes.push_back(std::move(n));
      continue;
    }
    uint64_t key = 0, vn = 0, cv = 0, len = 0;
    if ((p = GetVarint64(p, limit, &key)) == nullptr ||
        (p = GetVarint64(p, limit, &vn)) == nullptr ||
        (p = GetVarint64(p, limit, &cv)) == nullptr ||
        (p = GetVarint64(p, limit, &len)) == nullptr) {
      return Status::Corruption("truncated checkpoint node fields");
    }
    if (len > size_t(limit - p)) {
      return Status::Corruption("truncated checkpoint payload");
    }
    NodePtr n = MakeNode(key, std::string_view(p, len));
    p += len;
    n->set_vn(VersionId::FromRaw(vn));
    n->set_cv(VersionId::FromRaw(cv));
    n->set_color((flags & 1) ? Color::kRed : Color::kBlack);
    for (int side = 0; side < 2; ++side) {
      if (!(flags & (side == 0 ? 2 : 4))) continue;
      uint64_t child = 0;
      if ((p = GetVarint64(p, limit, &child)) == nullptr || child >= i) {
        return Status::Corruption("bad checkpoint child index");
      }
      (side == 0 ? n->left() : n->right()).Reset(Ref::To(nodes[child]));
    }
    // Ephemeral identities must stay resolvable for intentions that
    // reference them (§3.4); register into the bootstrapping resolver.
    if (n->vn().IsEphemeral()) resolver->RegisterPublishedEphemeral(n);
    // The checkpoint state doubles as the resolution floor: when the log
    // prefix below it is truncated, lazy references into that prefix
    // resolve from this map (ReplacePinnedBase) instead of refetching.
    if (!n->vn().IsNull()) (*pinned)[n->vn()] = n;
    nodes.push_back(std::move(n));
  }
  if (nodes.empty()) return Ref::Null();
  return Ref::To(nodes.back());
}

}  // namespace

Result<CheckpointInfo> WriteCheckpoint(HyderServer& server) {
  if (server.assembler_pending() != 0) {
    return Status::Busy(
        "cannot checkpoint with partially assembled intentions in flight; "
        "poll to quiescence first");
  }
  if (server.next_read_position() < server.log()->Tail()) {
    return Status::Busy("unprocessed log blocks remain; poll first");
  }
  if (server.pipeline().has_pending_group()) {
    // The captured state would predate the buffered intention while
    // resume_position lies past its blocks: a bootstrapping server would
    // skip it entirely and assign shifted meld sequences from then on.
    return Status::Busy(
        "a group-meld pair member is buffered undecided; submit more work "
        "to pair it before checkpointing");
  }
  DatabaseState state = server.LatestState();

  std::string payload;
  PutFixed32(&payload, kCheckpointMagic);
  PutVarint64(&payload, state.seq);
  PutVarint64(&payload, server.next_read_position());
  // Directory for lazy-reference refetches of pre-checkpoint intentions.
  auto directory = server.resolver().ExportDirectory();
  PutVarint64(&payload, directory.size());
  for (const auto& entry : directory) {
    PutVarint64(&payload, entry.seq);
    PutVarint64(&payload, entry.txn_id);
    PutVarint64(&payload, entry.positions.size());
    for (uint64_t pos : entry.positions) PutVarint64(&payload, pos);
  }
  // The tree itself.
  std::string tree;
  uint64_t node_count = 0;
  std::unordered_map<const Node*, uint32_t> index;
  NodePtr root = state.root.node;
  if (!root && !state.root.vn.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(root,
                           server.resolver().Resolve(state.root.vn));
  }
  HYDER_RETURN_IF_ERROR(SerializeState(&server.resolver(), root, index,
                                       &tree, &node_count));
  PutVarint64(&payload, node_count);
  payload.append(tree);
  // Ephemeral allocator counters: ephemeral version ids are physical state
  // (later intentions' ssv name them), so a bootstrapped server must resume
  // minting exactly where this incarnation left off. The quiescence checks
  // above guarantee the counters correspond to state.seq.
  const std::vector<uint64_t> counters = server.pipeline().EphemeralCounters();
  PutVarint64(&payload, counters.size());
  for (uint64_t c : counters) PutVarint64(&payload, c);
  // Per-origin txn-id floors. The directory above only names intentions the
  // checkpoint state still references; ids of fully superseded intentions
  // and of orphaned partial appends live only in log block headers — which
  // truncation at this checkpoint may reclaim. The writer is at the tail
  // (quiescence checks above), so its observed floors cover every header in
  // the log; a bootstrapping server seeds from them and can never re-issue
  // a (server id, local seq) pair that still has blocks anywhere.
  std::map<uint64_t, uint64_t> floors = server.txn_floors();
  uint64_t& own = floors[uint64_t(server.options().server_id) + 1];
  own = std::max(own, server.next_local_txn());
  PutVarint64(&payload, floors.size());
  for (const auto& [origin, floor] : floors) {
    PutVarint64(&payload, origin);
    PutVarint64(&payload, floor);
  }

  // Chop into checkpoint-tagged blocks.
  const size_t capacity = server.log()->block_size() - kBlockHeaderSize;
  const uint32_t total =
      static_cast<uint32_t>((payload.size() + capacity - 1) / capacity);
  CheckpointInfo info;
  info.state_seq = state.seq;
  info.resume_position = server.next_read_position();
  info.block_count = total;
  info.node_count = node_count;
  size_t off = 0;
  for (uint32_t i = 0; i < total; ++i) {
    const size_t len = std::min(capacity, payload.size() - off);
    BlockHeader h;
    h.txn_id = kCheckpointTxnBit | state.seq;
    h.index = i;
    h.total = total;
    h.chunk_len = static_cast<uint32_t>(len);
    std::string block;
    EncodeBlockHeader(h, &block);
    block.append(payload, off, len);
    off += len;
    // Duplicate copies from retried appends are harmless: scanners count
    // checkpoint blocks per index, not per copy.
    HYDER_ASSIGN_OR_RETURN(
        uint64_t pos,
        RetryTransient(
            server.options().log_retry, [&] { return server.log()->Append(block); },
            [&server](const Status&) { server.log()->RecordRetry(); }));
    if (i == 0) info.first_block = pos;
  }
  return info;
}

Result<std::optional<CheckpointInfo>> FindLatestCheckpoint(
    SharedLog& log, const RetryPolicy& retry) {
  struct Candidate {
    CheckpointInfo info;
    std::unordered_set<uint32_t> have;  ///< Distinct block indices seen.
  };
  std::unordered_map<uint64_t, Candidate> partial;
  std::vector<CheckpointInfo> complete;
  // Start at the low-water mark: positions below it are reclaimed, so a
  // checkpoint older than the truncation point can never be assembled —
  // the fallback order is structurally incapable of selecting one.
  for (uint64_t pos = log.LowWaterMark(); pos < log.Tail(); ++pos) {
    Result<std::string> block = RetryTransient(
        retry, [&] { return log.Read(pos); },
        [&log](const Status&) { log.RecordRetry(); });
    if (!block.ok()) {
      if (IsTransientError(block.status())) return block.status();
      // Permanently unreadable position (e.g. checksum mismatch). If it held
      // a checkpoint block, that checkpoint simply never completes and an
      // older intact one is chosen instead.
      continue;
    }
    auto header = DecodeBlockHeader(*block);
    if (!header.ok()) continue;
    if (!(header->txn_id & kCheckpointTxnBit)) continue;
    const uint64_t id = header->txn_id;
    Candidate& cand = partial[id];
    if (cand.have.empty()) {
      cand.info.state_seq = header->txn_id & ~kCheckpointTxnBit;
      cand.info.block_count = header->total;
    }
    if (header->index == 0 && !cand.have.count(0)) cand.info.first_block = pos;
    // Count distinct indices, not copies: a retried append may land the same
    // checkpoint block twice.
    if (cand.have.insert(header->index).second &&
        cand.have.size() == header->total) {
      complete.push_back(cand.info);
    }
  }
  // Newest first; a candidate whose header no longer parses (decayed after
  // the write, or a torn first block) is skipped for the next-newest.
  std::sort(complete.begin(), complete.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.state_seq > b.state_seq;
            });
  for (CheckpointInfo& best : complete) {
    // Belt and braces for a truncation racing this scan: a candidate whose
    // first block slipped below the (monotone) mark is no longer viable.
    if (best.first_block < log.LowWaterMark()) continue;
    Result<std::string> first = RetryTransient(
        retry, [&] { return log.Read(best.first_block); },
        [&log](const Status&) { log.RecordRetry(); });
    if (!first.ok()) {
      if (IsTransientError(first.status())) return first.status();
      continue;
    }
    auto h = DecodeBlockHeader(*first);
    if (!h.ok()) continue;
    const char* p = first->data() + kBlockHeaderSize;
    const char* limit = p + h->chunk_len;
    if (h->chunk_len < 4 || DecodeFixed32(p) != kCheckpointMagic) continue;
    p += 4;
    uint64_t seq = 0, resume = 0;
    if ((p = GetVarint64(p, limit, &seq)) == nullptr ||
        (p = GetVarint64(p, limit, &resume)) == nullptr) {
      continue;
    }
    best.state_seq = seq;
    best.resume_position = resume;
    return std::optional<CheckpointInfo>{best};
  }
  return std::optional<CheckpointInfo>{};
}

Result<std::unique_ptr<HyderServer>> BootstrapFromCheckpoint(
    SharedLog* log, const CheckpointInfo& info, ServerOptions options) {
  // Reassemble the checkpoint payload, collecting chunks by block index so
  // duplicate copies (retried appends) and out-of-order interleavings cannot
  // scramble it.
  std::vector<std::string> chunks(info.block_count);
  std::vector<bool> have(info.block_count, false);
  uint32_t collected = 0;
  for (uint64_t pos = info.first_block;
       pos < log->Tail() && collected < info.block_count; ++pos) {
    Result<std::string> block = RetryTransient(
        options.log_retry, [&] { return log->Read(pos); },
        [log](const Status&) { log->RecordRetry(); });
    if (!block.ok()) {
      if (IsTransientError(block.status())) return block.status();
      continue;  // Unreadable position; hope a duplicate copy exists.
    }
    auto header = DecodeBlockHeader(*block);
    if (!header.ok()) continue;
    if (header->txn_id != (kCheckpointTxnBit | info.state_seq)) continue;
    if (header->index >= info.block_count || have[header->index]) continue;
    chunks[header->index] = block->substr(kBlockHeaderSize, header->chunk_len);
    have[header->index] = true;
    collected++;
  }
  if (collected != info.block_count) {
    return Status::Corruption("incomplete checkpoint in the log");
  }
  std::string payload;
  for (std::string& chunk : chunks) payload.append(chunk);
  const char* p = payload.data();
  const char* limit = payload.data() + payload.size();
  if (payload.size() < 4 || DecodeFixed32(p) != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  p += 4;
  uint64_t seq = 0, resume = 0, dir_count = 0;
  if ((p = GetVarint64(p, limit, &seq)) == nullptr ||
      (p = GetVarint64(p, limit, &resume)) == nullptr ||
      (p = GetVarint64(p, limit, &dir_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint header");
  }
  std::vector<ServerResolver::DirectoryExport> directory;
  directory.reserve(dir_count);
  for (uint64_t i = 0; i < dir_count; ++i) {
    ServerResolver::DirectoryExport entry;
    uint64_t npos = 0;
    if ((p = GetVarint64(p, limit, &entry.seq)) == nullptr ||
        (p = GetVarint64(p, limit, &entry.txn_id)) == nullptr ||
        (p = GetVarint64(p, limit, &npos)) == nullptr) {
      return Status::Corruption("truncated checkpoint directory");
    }
    for (uint64_t j = 0; j < npos; ++j) {
      uint64_t pos = 0;
      if ((p = GetVarint64(p, limit, &pos)) == nullptr) {
        return Status::Corruption("truncated checkpoint directory entry");
      }
      entry.positions.push_back(pos);
    }
    directory.push_back(std::move(entry));
  }
  uint64_t node_count = 0;
  if ((p = GetVarint64(p, limit, &node_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint node count");
  }

  auto server = std::make_unique<HyderServer>(
      log, options, DatabaseState{seq, Ref::Null()}, resume);
  std::unordered_map<VersionId, NodePtr> pinned;
  HYDER_ASSIGN_OR_RETURN(
      Ref root,
      DeserializeState(p, limit, node_count, &server->resolver(), &pinned));
  // Ephemeral allocator counters (absent in older checkpoints, which predate
  // ephemeral-bearing states and thus implicitly carry all-zero counters).
  std::vector<uint64_t> counters;
  if (p != limit) {
    uint64_t counter_count = 0;
    if ((p = GetVarint64(p, limit, &counter_count)) == nullptr) {
      return Status::Corruption("truncated checkpoint allocator counters");
    }
    counters.reserve(counter_count);
    for (uint64_t i = 0; i < counter_count; ++i) {
      uint64_t c = 0;
      if ((p = GetVarint64(p, limit, &c)) == nullptr) {
        return Status::Corruption("truncated checkpoint allocator counter");
      }
      counters.push_back(c);
    }
  }
  // Per-origin txn-id floors (absent in older checkpoints; the directory
  // loop below then provides best-effort coverage).
  std::map<uint64_t, uint64_t> floors;
  if (p != limit) {
    uint64_t floor_count = 0;
    if ((p = GetVarint64(p, limit, &floor_count)) == nullptr) {
      return Status::Corruption("truncated checkpoint txn floors");
    }
    for (uint64_t i = 0; i < floor_count; ++i) {
      uint64_t origin = 0, floor = 0;
      if ((p = GetVarint64(p, limit, &origin)) == nullptr ||
          (p = GetVarint64(p, limit, &floor)) == nullptr) {
        return Status::Corruption("truncated checkpoint txn floor entry");
      }
      floors[origin] = floor;
    }
  }
  if (p != limit) {
    return Status::Corruption("trailing bytes after checkpoint");
  }
  server->pipeline().RestoreEphemeralCounters(counters);
  // Id-space recovery: the directory names every pre-checkpoint intention,
  // so a server restarting under its old id advances its local sequence
  // counter past everything it issued in previous incarnations (the log
  // replay from resume_position covers the rest).
  for (const auto& entry : directory) server->ObserveTxnId(entry.txn_id);
  // ...and the explicit floors cover what the directory cannot: superseded
  // intentions and orphaned partial appends whose only trace was a block
  // header in the (possibly truncated) prefix.
  server->SeedTxnFloors(floors);
  server->resolver().ImportDirectory(directory);
  // The reconstructed state is this server's resolution floor: directory
  // refetches that hit a truncated prefix fall back to it (the checkpoint
  // is, by the truncation protocol, at least as new as any low-water mark).
  server->resolver().ReplacePinnedBase(seq, std::move(pinned));
  // Install the reconstructed root as the initial state.
  HYDER_RETURN_IF_ERROR(
      server->pipeline().states().ReplaceInitial(DatabaseState{seq, root}));
  return server;
}

}  // namespace hyder
