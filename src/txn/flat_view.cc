#include "txn/flat_view.h"

#include <algorithm>

#include "common/varint.h"
#include "txn/wire_format.h"

namespace hyder {

FlatIntentionView::~FlatIntentionView() {
  if (slots_ == nullptr) return;
  for (uint32_t i = 0; i < node_count_; ++i) {
    // relaxed: the destructor runs with exclusive access; any concurrent
    // materialization happened-before the last reference was dropped.
    NodeUnref(slots_[i].load(std::memory_order_relaxed));
  }
}

bool FlatIntentionView::LooksFlat(std::string_view payload) {
  return payload.size() >= 2 &&
         static_cast<uint8_t>(payload[0]) == kWireFlatMagic0 &&
         static_cast<uint8_t>(payload[1]) == kWireFlatMagic1;
}

Result<std::shared_ptr<FlatIntentionView>> FlatIntentionView::Parse(
    std::string payload, uint64_t seq) {
  std::shared_ptr<FlatIntentionView> view(new FlatIntentionView());
  view->payload_ = std::move(payload);
  view->seq_ = seq;
  HYDER_RETURN_IF_ERROR(view->ParseBody());
  return view;
}

/// One full validation pass over the adopted payload. Everything NodeAt
/// later relies on — field bounds, offset monotonicity, child indices —
/// is checked here, so materialization is infallible offset arithmetic.
/// Record-level checks mirror the v2 decoder's (same Corruption messages);
/// violations of the flat framing itself (magic, region length, offset
/// table) are DataLoss: structurally the bytes cannot be a v3 intention.
Status FlatIntentionView::ParseBody() {
  const char* p = payload_.data();
  const char* limit = p + payload_.size();
  if (payload_.size() < kWireFlatPrefixBytes ||
      static_cast<uint8_t>(p[0]) != kWireFlatMagic0 ||
      static_cast<uint8_t>(p[1]) != kWireFlatMagic1) {
    return Status::DataLoss("flat intention magic mismatch");
  }
  if (static_cast<uint8_t>(p[2]) != kWireFlatVersion) {
    return Status::DataLoss("unsupported flat intention version");
  }
  p += kWireFlatPrefixBytes;

  if ((p = GetVarint64(p, limit, &snapshot_seq_)) == nullptr) {
    return Status::Corruption("truncated intention header");
  }
  if (p >= limit) return Status::Corruption("truncated isolation byte");
  const uint8_t iso_byte = static_cast<uint8_t>(*p++);
  wide_ = (iso_byte & kWireWideLayout) != 0;
  isolation_ = static_cast<IsolationLevel>(iso_byte & ~kWireWideLayout);
  uint64_t fanout = 0;
  if (wide_) {
    if ((p = GetVarint64(p, limit, &fanout)) == nullptr) {
      return Status::Corruption("truncated wide page capacity");
    }
    if (fanout < 3 || fanout > 64) {
      return Status::Corruption("wide page capacity out of range");
    }
    fanout_ = static_cast<int>(fanout);
  }
  uint64_t tomb_count = 0;
  if ((p = GetVarint64(p, limit, &tomb_count)) == nullptr) {
    return Status::Corruption("truncated tombstone count");
  }
  for (uint64_t i = 0; i < tomb_count; ++i) {
    Tombstone t;
    uint64_t key = 0, cv = 0, ssv = 0;
    if ((p = GetVarint64(p, limit, &key)) == nullptr ||
        (p = GetVarint64(p, limit, &cv)) == nullptr ||
        (p = GetVarint64(p, limit, &ssv)) == nullptr) {
      return Status::Corruption("truncated tombstone");
    }
    t.key = key;
    t.base_cv = VersionId::FromRaw(cv);
    t.ssv = VersionId::FromRaw(ssv);
    tombstones_.push_back(t);
  }
  uint64_t node_count = 0;
  if ((p = GetVarint64(p, limit, &node_count)) == nullptr) {
    return Status::Corruption("truncated node count");
  }
  if (node_count >= (1u << VersionId::kIndexBits)) {
    return Status::Corruption("intention too large for the version id space");
  }
  node_count_ = static_cast<uint32_t>(node_count);
  uint64_t region_len = 0;
  if ((p = GetVarint64(p, limit, &region_len)) == nullptr) {
    return Status::DataLoss("truncated flat node-region length");
  }
  // The rest of the payload is exactly the node region plus the offset
  // table — one equality covers both truncation and trailing garbage.
  const uint64_t table_len = 4 * node_count;
  if (uint64_t(limit - p) != region_len + table_len) {
    return Status::DataLoss("flat intention length mismatch");
  }
  region_ = p;
  region_len_ = static_cast<size_t>(region_len);
  offsets_ = p + region_len_;
  if (node_count_ == 0 && region_len_ != 0) {
    return Status::DataLoss("flat intention node bytes without records");
  }

  uint32_t prev = 0;
  for (uint32_t i = 0; i < node_count_; ++i) {
    const uint32_t off = DecodeFixed32(offsets_ + 4 * size_t(i));
    if (i == 0 ? off != 0 : off <= prev) {
      return Status::DataLoss("flat offset table not strictly increasing");
    }
    if (off >= region_len_) {
      return Status::DataLoss("flat offset out of range");
    }
    prev = off;
  }

  // Per-record validation pass, also building the subtree-writes bitset
  // (bit i = record i altered, or any internal child's bit set — what the
  // v2 decoder propagates eagerly through materialized children).
  subtree_writes_.assign((size_t(node_count_) + 63) / 64, 0);
  first_in_subtree_.resize(node_count_);
  for (uint32_t i = 0; i < node_count_; ++i) {
    const char* rp = nullptr;
    const char* rend = nullptr;
    RecordExtent(i, &rp, &rend);
    bool writes = false;
    uint64_t ssv = 0;
    uint32_t first = i;
    uint64_t quad[4];
    if (!wide_) {
      if (rp >= rend) return Status::Corruption("truncated node record");
      const uint8_t flags = static_cast<uint8_t>(*rp++);
      if ((rp = GetVarint64x4(rp, rend, quad)) == nullptr) {
        return Status::Corruption("truncated node fields");
      }
      const uint64_t payload_len = quad[3];
      if (payload_len > size_t(rend - rp)) {
        return Status::Corruption("truncated node payload");
      }
      rp += payload_len;
      ssv = quad[1];
      if (flags & kWireAltered) writes = true;
      for (int side = 0; side < 2; ++side) {
        const bool present =
            flags & (side == 0 ? kWireLeftPresent : kWireRightPresent);
        if (!present) continue;
        const bool internal =
            flags & (side == 0 ? kWireLeftInternal : kWireRightInternal);
        uint64_t ev = 0;
        if ((rp = GetVarint64(rp, rend, &ev)) == nullptr) {
          return Status::Corruption("truncated child reference");
        }
        if (internal) {
          if (ev >= i) {
            return Status::Corruption("child index violates post-order");
          }
          if (SubtreeHasWrites(static_cast<uint32_t>(ev))) writes = true;
          first = std::min(first, first_in_subtree_[ev]);
        } else if (VersionId::FromRaw(ev).IsNull()) {
          return Status::Corruption("null external child reference");
        }
      }
    } else {
      if (rp >= rend) return Status::Corruption("truncated page record");
      ++rp;  // Page flags byte; any bit pattern decodes.
      uint64_t page_ssv = 0, slot_count = 0;
      if ((rp = GetVarint64(rp, rend, &page_ssv)) == nullptr ||
          (rp = GetVarint64(rp, rend, &slot_count)) == nullptr) {
        return Status::Corruption("truncated page fields");
      }
      ssv = page_ssv;
      if (slot_count == 0 || slot_count > uint64_t(fanout_)) {
        return Status::Corruption("wide page slot count out of range");
      }
      for (uint64_t s = 0; s < slot_count; ++s) {
        if (rp >= rend) return Status::Corruption("truncated slot record");
        const uint8_t sf = static_cast<uint8_t>(*rp++);
        if ((rp = GetVarint64x4(rp, rend, quad)) == nullptr) {
          return Status::Corruption("truncated slot fields");
        }
        const uint64_t payload_len = quad[3];
        if (payload_len > size_t(rend - rp)) {
          return Status::Corruption("truncated slot payload");
        }
        rp += payload_len;
        if (sf & kWireSlotAltered) writes = true;
        // A slot's ssv names the page its key came from.
        if (VersionId::FromRaw(quad[1]).IsEphemeral()) {
          ephemeral_ssvs_.emplace_back(i, VersionId::FromRaw(quad[1]));
        }
      }
      for (uint64_t ci = 0; ci <= slot_count; ++ci) {
        if (rp >= rend) return Status::Corruption("truncated child tag");
        const uint8_t tag = static_cast<uint8_t>(*rp++);
        if (!(tag & kWireChildPresent)) continue;
        uint64_t ev = 0;
        if ((rp = GetVarint64(rp, rend, &ev)) == nullptr) {
          return Status::Corruption("truncated child reference");
        }
        if (tag & kWireChildInternal) {
          if (ev >= i) {
            return Status::Corruption("child index violates post-order");
          }
          if (SubtreeHasWrites(static_cast<uint32_t>(ev))) writes = true;
          first = std::min(first, first_in_subtree_[ev]);
        } else if (VersionId::FromRaw(ev).IsNull()) {
          return Status::Corruption("null external child reference");
        }
      }
    }
    if (rp != rend) {
      return Status::DataLoss("flat record does not fill its offset extent");
    }
    if (writes) subtree_writes_[i >> 6] |= uint64_t(1) << (i & 63);
    first_in_subtree_[i] = first;
    if (VersionId::FromRaw(ssv).IsEphemeral()) {
      ephemeral_ssvs_.emplace_back(i, VersionId::FromRaw(ssv));
    }
  }
  // Subtree ranges only serve ephemeral-ssv lookups.
  if (ephemeral_ssvs_.empty()) std::vector<uint32_t>().swap(first_in_subtree_);

  if (node_count_ > 0) {
    slots_ = std::make_unique<std::atomic<Node*>[]>(node_count_);
  }
  return Status::OK();
}

void FlatIntentionView::RecordExtent(uint32_t index, const char** start,
                                     const char** end) const {
  *start = region_ + DecodeFixed32(offsets_ + 4 * size_t(index));
  *end = index + 1 < node_count_
             ? region_ + DecodeFixed32(offsets_ + 4 * (size_t(index) + 1))
             : region_ + region_len_;
}

/// Materializes binary record `index`. Field semantics are identical to
/// the v2 decoder's node branch, except that child edges — internal and
/// external alike — come out lazy: an internal child carries
/// Logged(seq, child_index), the id it would have fully materialized, so
/// reference identity (and hence every meld decision) is unchanged.
NodePtr FlatIntentionView::BuildBinary(uint32_t index) const {
  const char* p = nullptr;
  const char* end = nullptr;
  RecordExtent(index, &p, &end);
  const uint8_t flags = static_cast<uint8_t>(*p++);
  uint64_t quad[4];
  p = GetVarint64x4(p, end, quad);
  const uint64_t payload_len = quad[3];
  NodePtr n = MakeNode(quad[0], std::string_view(p, payload_len));
  p += payload_len;
  n->set_vn(VersionId::Logged(seq_, index));
  n->set_owner(seq_);
  n->set_ssv(VersionId::FromRaw(quad[1]));
  n->set_base_cv(VersionId::FromRaw(quad[2]));
  n->set_color((flags & kWireRed) ? Color::kRed : Color::kBlack);
  uint8_t nf = 0;
  if (flags & kWireAltered) nf |= kFlagAltered;
  if (flags & kWireRead) nf |= kFlagRead;
  if (flags & kWireSubtreeRead) nf |= kFlagSubtreeRead;
  if (SubtreeHasWrites(index)) nf |= kFlagSubtreeHasWrites;
  n->set_flags(nf);
  n->set_cv(n->altered() ? n->vn() : n->base_cv());
  for (int side = 0; side < 2; ++side) {
    const bool present =
        flags & (side == 0 ? kWireLeftPresent : kWireRightPresent);
    if (!present) continue;
    const bool internal =
        flags & (side == 0 ? kWireLeftInternal : kWireRightInternal);
    uint64_t ev = 0;
    p = GetVarint64(p, end, &ev);
    ChildSlot& slot = side == 0 ? n->left() : n->right();
    slot.Reset(Ref::Lazy(internal
                             ? VersionId::Logged(seq_,
                                                 static_cast<uint32_t>(ev))
                             : VersionId::FromRaw(ev)));
  }
  return n;
}

/// Materializes wide record `index`; the wide analog of BuildBinary.
NodePtr FlatIntentionView::BuildWide(uint32_t index) const {
  const char* p = nullptr;
  const char* end = nullptr;
  RecordExtent(index, &p, &end);
  const uint8_t pf = static_cast<uint8_t>(*p++);
  uint64_t page_ssv = 0, slot_count = 0;
  p = GetVarint64(p, end, &page_ssv);
  p = GetVarint64(p, end, &slot_count);
  NodePtr n = MakeWideNode(fanout_);
  WideExt& e = *n->wide();
  n->set_vn(VersionId::Logged(seq_, index));
  n->set_owner(seq_);
  n->set_ssv(VersionId::FromRaw(page_ssv));
  uint8_t nf = (pf & kWirePageSubtreeRead) ? kFlagSubtreeRead : 0;
  if (SubtreeHasWrites(index)) nf |= kFlagSubtreeHasWrites;
  e.set_count(static_cast<int>(slot_count));
  uint64_t quad[4];
  for (uint64_t s = 0; s < slot_count; ++s) {
    const uint8_t sf = static_cast<uint8_t>(*p++);
    p = GetVarint64x4(p, end, quad);
    const uint64_t payload_len = quad[3];
    WideSlot& sl = e.slot(static_cast<int>(s));
    sl.key = quad[0];
    sl.set_payload(std::string_view(p, payload_len));
    p += payload_len;
    sl.meta.ssv = VersionId::FromRaw(quad[1]);
    sl.meta.base_cv = VersionId::FromRaw(quad[2]);
    uint8_t slf = 0;
    if (sf & kWireSlotAltered) slf |= kFlagAltered;
    if (sf & kWireSlotRead) slf |= kFlagRead;
    sl.meta.flags = slf;
    sl.meta.cv = (slf & kFlagAltered) ? n->vn() : sl.meta.base_cv;
  }
  for (uint64_t ci = 0; ci <= slot_count; ++ci) {
    const uint8_t tag = static_cast<uint8_t>(*p++);
    if (tag & kWireGapRead) e.set_gap_read(static_cast<int>(ci), true);
    if (!(tag & kWireChildPresent)) continue;
    uint64_t ev = 0;
    p = GetVarint64(p, end, &ev);
    e.child(static_cast<int>(ci))
        .Reset(Ref::Lazy(tag & kWireChildInternal
                             ? VersionId::Logged(seq_,
                                                 static_cast<uint32_t>(ev))
                             : VersionId::FromRaw(ev)));
  }
  n->set_flags(nf);
  return n;
}

NodePtr FlatIntentionView::NodeAt(uint32_t index) const {
  if (index >= node_count_) return nullptr;
  if (Node* hit = slots_[index].load(std::memory_order_acquire)) {
    return NodePtr::Share(hit);
  }
  NodePtr built = wide_ ? BuildWide(index) : BuildBinary(index);
  Node* raw = built.get();
  Node* expected = nullptr;
  NodeRef(raw);  // The slot's own strong reference.
  if (slots_[index].compare_exchange_strong(expected, raw,
                                            std::memory_order_acq_rel)) {
    // relaxed: a statistics counter; publication ordering for the node is
    // carried by the acq_rel CAS on the slot, not by this increment.
    materialized_.fetch_add(1, std::memory_order_relaxed);
    return built;
  }
  // Lost the publication race: discard our build, adopt the winner's.
  NodeUnref(raw);
  return NodePtr::Share(expected);
}

std::vector<std::pair<uint32_t, VersionId>>::const_iterator
FlatIntentionView::EphemeralSsvsFrom(uint32_t index) const {
  return std::lower_bound(
      ephemeral_ssvs_.begin(), ephemeral_ssvs_.end(), index,
      [](const std::pair<uint32_t, VersionId>& e, uint32_t i) {
        return e.first < i;
      });
}

void FlatIntentionView::AppendRecordEphemeralSsvs(
    uint32_t index, std::vector<VersionId>* out) const {
  for (auto it = EphemeralSsvsFrom(index);
       it != ephemeral_ssvs_.end() && it->first == index; ++it) {
    out->push_back(it->second);
  }
}

void FlatIntentionView::AppendSubtreeEphemeralSsvs(
    uint32_t index, std::vector<VersionId>* out) const {
  if (index >= node_count_ || ephemeral_ssvs_.empty()) return;
  // Post-order: record index's subtree is the contiguous index range
  // [first_in_subtree_[index], index].
  for (auto it = EphemeralSsvsFrom(first_in_subtree_[index]);
       it != ephemeral_ssvs_.end() && it->first <= index; ++it) {
    out->push_back(it->second);
  }
}

NodePtr FlatIntentionView::Root() const {
  return node_count_ == 0 ? NodePtr() : NodeAt(node_count_ - 1);
}

NodePtr Intention::ResolveFlat(VersionId vn) const {
  if (!vn.IsLogged()) return nullptr;
  for (const auto& [member_seq, view] : flats) {
    if (member_seq == vn.intention_seq()) return view->NodeAt(vn.node_index());
  }
  return nullptr;
}

}  // namespace hyder
