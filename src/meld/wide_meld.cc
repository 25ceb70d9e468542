#include "meld/wide_meld.h"

#include <algorithm>
#include <string>
#include <vector>

#include "tree/wide_ops.h"

namespace hyder {

namespace {

/// A slot's data lifted out of its page: the unit the multi-way split and
/// the survivor collection move around.
struct SlotData {
  bool present = false;
  Key key = 0;
  std::string payload;
  WideSlotMeta meta;

  static SlotData From(const WideSlot& s) {
    SlotData d;
    d.present = true;
    d.key = s.key;
    d.payload = std::string(s.payload());
    d.meta = s.meta;
    return d;
  }
};

class WideMelder {
 public:
  WideMelder(const MeldContext& ctx, const Intention& intent)
      : ctx_(ctx), intent_(intent) {}

  Result<Ref> Run(const Ref& base_root) {
    Ref melded = base_root;
    if (!intent_.root.IsNull()) {
      HYDER_ASSIGN_OR_RETURN(melded, Rec(intent_.root, base_root));
    }
    HYDER_RETURN_IF_ERROR(ApplyTombstones(base_root, &melded));
    return melded;
  }

 private:
  bool Inside(const Node* n) const {
    return n != nullptr &&
           (n->owner() == ctx_.out_tag || intent_.Inside(*n));
  }

  /// Wire-v3 member edges arrive lazy; materialize them canonically
  /// through the intention's flat views before the Inside test (see the
  /// binary Melder's NormalizeIntentEdge).
  void NormalizeIntentEdge(Ref* e) const {
    if (intent_.flats.empty() || e->node || !e->vn.IsLogged()) return;
    if (NodePtr n = intent_.ResolveFlat(e->vn)) e->node = std::move(n);
  }
  bool BaseInside(const Node* n) const {
    return ctx_.group_base != nullptr && n != nullptr &&
           ctx_.group_base->Inside(*n);
  }
  bool Serializable() const {
    return intent_.isolation == IsolationLevel::kSerializable;
  }
  void Visit() const {
    if (ctx_.work != nullptr) ctx_.work->nodes_visited++;
  }

  /// Typed-provenance abort for slot-granularity content conflicts (the
  /// slot index is the wide layout's extra forensic dimension). See the
  /// binary Melder::Abort: allocation-free, `msg` a short static literal.
  Status AbortSlot(AbortCause cause, Key key, int slot,
                   const char* msg) const {
    if (ctx_.abort_sink != nullptr) {
      AbortInfo& a = *ctx_.abort_sink;
      a.cause = cause;
      a.conflict = cause;
      a.key_kind = AbortKeyKind::kUserKey;
      a.key = key;
      a.slot = slot;
    }
    return Status::Aborted(msg);
  }

  /// Page-granularity structural abort: no single user key exists, so the
  /// provenance carries the base page id instead.
  Status AbortPage(AbortCause cause, uint64_t page_raw,
                   const char* msg) const {
    if (ctx_.abort_sink != nullptr) {
      AbortInfo& a = *ctx_.abort_sink;
      a.cause = cause;
      a.conflict = cause;
      a.key_kind = AbortKeyKind::kPageId;
      a.key = page_raw;
      a.slot = -1;
    }
    return Status::Aborted(msg);
  }

  Result<NodePtr> Materialize(const Ref& e) const {
    if (e.node) return e.node;
    if (e.vn.IsNull()) return NodePtr();
    if (ctx_.resolver == nullptr) {
      return Status::Internal("meld: lazy edge with no resolver");
    }
    return ctx_.resolver->Resolve(e.vn);
  }

  NodePtr NewEphemeralPage(int cap) const {
    NodePtr e = MakeWideNode(cap);
    e->set_owner(ctx_.out_tag);
    ctx_.alloc->Assign(e);
    if (ctx_.work != nullptr) ctx_.work->ephemeral_created++;
    return e;
  }

  /// Page-granularity structural (phantom) validation, the wide analog of
  /// the binary subtree_read check: a page carrying any structural-read
  /// mark (page flag or gap flag) demands its base page be exactly the
  /// version it was derived from. Reaching this check means the graft
  /// fast path did not fire, so in state mode the versions diverged.
  Status CheckPagePhantom(const Node* i, const Node* l) const {
    if (ctx_.work != nullptr) ctx_.work->conflict_checks++;
    if (Serializable() && i->page_structural_read()) {
      if (ctx_.mode == MeldMode::kState) {
        if (i->ssv() != l->vn()) {
          return AbortPage(AbortCause::kAbortPhantom, i->vn().raw(),
                           "phantom");
        }
      } else if (BaseInside(l)) {
        return AbortPage(AbortCause::kAbortPhantom, i->vn().raw(),
                         "group phantom");
      }
    }
    return Status::OK();
  }

  /// Slot-granularity content validation: write-write and (serializable)
  /// read-write conflicts between the intention's slot and the base's
  /// current slot for the same key. Group mode scopes the check to slots
  /// the base intention actually wrote, as in the binary melder.
  Status CheckSlotConflict(const SlotData& eq, const Node* l,
                           const WideSlot& ls, int slot) const {
    if (ctx_.work != nullptr) ctx_.work->conflict_checks++;
    const bool eligible =
        ctx_.mode == MeldMode::kState || (BaseInside(l) && ls.altered());
    const bool content_changed = ls.meta.cv != eq.meta.base_cv;
    if (eligible && content_changed) {
      if (eq.meta.flags & kFlagAltered) {
        return AbortSlot(AbortCause::kAbortWriteWrite, eq.key, slot,
                         "write-write");
      }
      if (Serializable() && (eq.meta.flags & kFlagRead)) {
        return AbortSlot(AbortCause::kAbortReadWrite, eq.key, slot,
                         "read-write");
      }
    }
    return Status::OK();
  }

  static bool SameEdge(const Ref& melded, const Ref& base) {
    if (melded.node && base.node) return melded.node.get() == base.node.get();
    if (!melded.vn.IsNull() || !base.vn.IsNull()) {
      return melded.vn == base.vn;
    }
    return melded.IsNull() && base.IsNull();
  }

  // --- Split machinery -----------------------------------------------

  struct SplitOut {
    Ref less;
    SlotData eq;
    Ref greater;
  };

  /// Builds the split piece holding `n`'s slots [slot_lo, slot_hi) and the
  /// matching children, with the inner-most child edge replaced by
  /// `replacement` (`replace_first` selects which end faces the split
  /// key). An empty slot range collapses to the replacement edge itself.
  ///
  /// Piece pages are ephemeral with a null page ssv: like the binary
  /// split copies, their subtree is incomplete (outside references were
  /// cut), so the graft fast path must never return them wholesale. Slot
  /// metadata survives so per-slot conflict checks still fire; page flags
  /// and in-range gap flags survive so structural dependencies stay
  /// conservative (a null ssv page with marks fails the phantom check).
  Ref MakePiece(const Node* n, int slot_lo, int slot_hi, Ref replacement,
                bool replace_first) {
    const WideExt& e = *n->wide();
    if (slot_lo >= slot_hi) return replacement;
    NodePtr p = NewEphemeralPage(e.cap());
    WideExt& pe = *p->wide();
    const int cnt = slot_hi - slot_lo;
    pe.set_count(cnt);
    for (int j = 0; j < cnt; ++j) pe.slot(j).CopyFrom(e.slot(slot_lo + j));
    for (int j = 0; j <= cnt; ++j) {
      pe.child(j).Reset(e.child(slot_lo + j).GetLocal());
      pe.set_gap_read(j, e.gap_read(slot_lo + j));
    }
    if (replace_first) {
      pe.child(0).Reset(std::move(replacement));
    } else {
      pe.child(cnt).Reset(std::move(replacement));
    }
    p->set_flags(n->flags());
    // ssv stays null (incomplete subtree; no grafting).
    return Ref::To(p);
  }

  /// Splits the in-intention subtree at `edge` around key `k`, the wide
  /// analog of the binary Split. Outside references contribute nothing:
  /// their meld value is "the base wins".
  Result<SplitOut> SplitOne(Ref edge, Key k) {
    SplitOut out;
    NormalizeIntentEdge(&edge);
    const Node* n = edge.node.get();
    if (!Inside(n)) return out;
    Visit();
    if (ctx_.work != nullptr) ctx_.work->splits++;
    if (!n->is_wide()) {
      return Status::Internal("meld: binary node inside wide intention");
    }
    const WideExt& e = *n->wide();
    const WideFind f = WideSearchPage(*n, k);
    if (f.found) {
      // The split key is a slot of this page: the flanking children go
      // whole to their sides, no recursion needed.
      out.eq = SlotData::From(e.slot(f.index));
      out.less = MakePiece(n, 0, f.index, e.child(f.index).GetLocal(),
                           /*replace_first=*/false);
      out.greater = MakePiece(n, f.index + 1, e.count(),
                              e.child(f.index + 1).GetLocal(),
                              /*replace_first=*/true);
      return out;
    }
    HYDER_ASSIGN_OR_RETURN(SplitOut inner,
                           SplitOne(e.child(f.index).GetLocal(), k));
    out.eq = std::move(inner.eq);
    out.less = MakePiece(n, 0, f.index, std::move(inner.less),
                         /*replace_first=*/false);
    out.greater = MakePiece(n, f.index, e.count(), std::move(inner.greater),
                            /*replace_first=*/true);
    return out;
  }

  // --- Missing-interval handling -------------------------------------

  /// The base tree has no content in this interval but the intention
  /// does; see the binary IntoMissing for the mode semantics.
  Result<Ref> IntoMissing(const Ref& i_edge) {
    if (ctx_.mode == MeldMode::kGroup) return i_edge;
    std::vector<SlotData> kept;
    HYDER_RETURN_IF_ERROR(CollectSurvivors(i_edge, &kept));
    if (kept.empty()) return Ref::Null();
    const NodePtr& top = i_edge.node;
    const int cap = top->wide()->cap();
    int height = 1;
    while (SubtreeCapacity(cap, height) < kept.size()) ++height;
    return BuildWideBalanced(kept, 0, kept.size(), cap, height);
  }

  Status CollectSurvivors(Ref edge, std::vector<SlotData>* kept) {
    NormalizeIntentEdge(&edge);
    const Node* n = edge.node.get();
    if (!Inside(n)) return Status::OK();  // Outside/lazy: deleted region.
    Visit();
    if (!n->is_wide()) {
      return Status::Internal("meld: binary node inside wide intention");
    }
    if (Serializable() && n->page_structural_read()) {
      // The page's structural dependencies cover intervals that existed in
      // the snapshot and are gone from the base: a scanned region was
      // concurrently deleted.
      return AbortPage(AbortCause::kAbortPhantom, n->vn().raw(),
                       "scan vs delete");
    }
    const WideExt& e = *n->wide();
    for (int j = 0; j <= e.count(); ++j) {
      HYDER_RETURN_IF_ERROR(CollectSurvivors(e.child(j).GetLocal(), kept));
      if (j == e.count()) break;
      const WideSlot& s = e.slot(j);
      if (!s.meta.ssv.IsNull() || !s.meta.base_cv.IsNull()) {
        // The key existed in the snapshot but is gone from the base state:
        // the subtree this intention grafted onto was concurrently deleted.
        if (s.altered()) {
          return AbortSlot(AbortCause::kAbortGraft, s.key, j,
                           "write vs delete");
        }
        if (Serializable() && s.read_dependent()) {
          return AbortSlot(AbortCause::kAbortGraft, s.key, j,
                           "read vs delete");
        }
        // Path copy only: the concurrent delete wins; drop it.
      } else if (s.altered()) {
        kept->push_back(SlotData::From(s));  // Fresh insert: keep.
      }
    }
    return Status::OK();
  }

  /// Slots a wide subtree of height `h` can hold (cap slots per page).
  static uint64_t SubtreeCapacity(int cap, int h) {
    uint64_t s = 0;
    for (int level = 0; level < h; ++level) {
      s = uint64_t(cap) + (uint64_t(cap) + 1) * s;
    }
    return s;
  }

  /// Deterministically rebuilds kept inserts (already key-sorted) into a
  /// wide subtree of the given height: minimal slots at the root, evenly
  /// (left-heavy) distributed children.
  Ref BuildWideBalanced(const std::vector<SlotData>& items, size_t lo,
                        size_t hi, int cap, int height) {
    const size_t n = hi - lo;
    if (n == 0) return Ref::Null();
    NodePtr p = NewEphemeralPage(cap);
    WideExt& pe = *p->wide();
    if (n <= size_t(cap)) {
      pe.set_count(static_cast<int>(n));
      for (size_t j = 0; j < n; ++j) FillSlot(pe.slot(j), items[lo + j]);
      return Ref::To(p);
    }
    const uint64_t child_cap = SubtreeCapacity(cap, height - 1);
    int k = 1;
    while (uint64_t(k) + (uint64_t(k) + 1) * child_cap < n) ++k;
    pe.set_count(k);
    const size_t rem = n - size_t(k);
    const size_t base = rem / size_t(k + 1);
    const size_t extra = rem % size_t(k + 1);
    size_t cursor = lo;
    for (int c = 0; c <= k; ++c) {
      const size_t size_c = base + (size_t(c) < extra ? 1 : 0);
      pe.child(c).Reset(
          BuildWideBalanced(items, cursor, cursor + size_c, cap, height - 1));
      cursor += size_c;
      if (c < k) {
        FillSlot(pe.slot(c), items[cursor]);
        ++cursor;
      }
    }
    return Ref::To(p);
  }

  static void FillSlot(WideSlot& s, const SlotData& d) {
    s.key = d.key;
    s.set_payload(d.payload);
    s.meta.flags = d.meta.flags;
    s.meta.cv = d.meta.cv;
    // ssv/base_cv stay null: this is an insert.
    s.meta.ssv = VersionId();
    s.meta.base_cv = VersionId();
  }

  // --- The per-page merge --------------------------------------------

  /// True when page `i` and page `l` carry the same key sequence — the
  /// common conflict-zone shape (content divergence without concurrent
  /// splits), merged slot-by-slot without any split copies.
  static bool SameKeySet(const Node* i, const Node* l) {
    const WideExt& ie = *i->wide();
    const WideExt& le = *l->wide();
    if (ie.count() != le.count()) return false;
    for (int j = 0; j < ie.count(); ++j) {
      if (ie.slot(j).key != le.slot(j).key) return false;
    }
    return true;
  }

  /// Builds the merged output page for base page `l` given the per-slot
  /// intention data `eqs` and the already-melded children. `i_top` is the
  /// aligned intention page when the fast aligned path matched (it
  /// supplies page flags, gap flags and group-mode page provenance);
  /// null on the split path, where page metadata degrades conservatively
  /// (null ssv, kFlagSubtreeRead if the intention side had structural
  /// marks that cannot be mapped onto `l`'s layout).
  Result<Ref> MergePage(const Node* i_top, bool i_marks, const NodePtr& l,
                        const std::vector<SlotData>& eqs,
                        std::vector<Ref> children) {
    const WideExt& le = *l->wide();
    // Collapse to base: no intention slot contributes a payload, no
    // readset metadata must survive (states never need it; transaction
    // outputs only when some slot, page flag or gap flag carries it) and
    // the structure below is unchanged — the wide CanCollapseToBase.
    bool collapse = true;
    if (!ctx_.output_is_state) {
      if (i_marks) collapse = false;
      if (i_top != nullptr &&
          (i_top->flags() != 0 || i_top->wide()->any_gap_read())) {
        collapse = false;
      }
    }
    for (int j = 0; collapse && j < le.count(); ++j) {
      if (!eqs[j].present) continue;
      if (eqs[j].meta.flags & kFlagAltered) collapse = false;
      if (!ctx_.output_is_state && eqs[j].meta.flags != 0) collapse = false;
    }
    for (int j = 0; collapse && j <= le.count(); ++j) {
      if (!SameEdge(children[j], le.child(j).GetLocal())) collapse = false;
    }
    if (collapse) return Ref::To(l);

    NodePtr out = NewEphemeralPage(le.cap());
    WideExt& oe = *out->wide();
    oe.set_count(le.count());
    bool any_altered = false;
    for (int j = 0; j < le.count(); ++j) {
      const WideSlot& ls = le.slot(j);
      const SlotData& eq = eqs[j];
      WideSlot& os = oe.slot(j);
      os.key = ls.key;
      const bool i_altered = eq.present && (eq.meta.flags & kFlagAltered);
      any_altered = any_altered || i_altered;
      os.set_payload(i_altered ? std::string_view(eq.payload)
                               : ls.payload());
      if (ctx_.mode == MeldMode::kState) {
        os.meta.ssv = l->vn();
        os.meta.base_cv = ls.meta.cv;
        os.meta.cv = i_altered ? eq.meta.cv : ls.meta.cv;
        os.meta.flags = eq.present ? eq.meta.flags : 0;
      } else {
        // Group mode (§4): merged metadata must make final meld validate
        // the maximum of the two members' conflict zones.
        const bool l_is_base_write = BaseInside(l.get()) && ls.altered();
        os.meta.cv = i_altered ? eq.meta.cv : ls.meta.cv;
        uint8_t flags = eq.present ? eq.meta.flags : 0;
        if (i_altered || l_is_base_write) flags |= kFlagAltered;
        if (BaseInside(l.get())) flags |= ls.meta.flags & kFlagRead;
        os.meta.flags = flags;
        if (eq.present &&
            intent_.snapshot_seq <= ctx_.group_base->snapshot_seq) {
          os.meta.ssv = eq.meta.ssv;
          os.meta.base_cv = eq.meta.base_cv;
        } else if (BaseInside(l.get())) {
          os.meta.ssv = ls.meta.ssv;
          os.meta.base_cv = ls.meta.base_cv;
        } else {
          os.meta.ssv = l->vn();
          os.meta.base_cv = ls.meta.cv;
        }
      }
    }
    for (int j = 0; j <= le.count(); ++j) {
      oe.child(j).Reset(std::move(children[j]));
    }

    // Page-level metadata.
    uint8_t page_flags = i_top != nullptr ? i_top->flags() : 0;
    if (i_top == nullptr && i_marks) page_flags |= kFlagSubtreeRead;
    if (ctx_.mode == MeldMode::kState) {
      out->set_ssv(l->vn());
      out->set_flags(page_flags);
    } else {
      uint8_t flags = page_flags;
      if (any_altered) flags |= kFlagAltered | kFlagSubtreeHasWrites;
      if (BaseInside(l.get())) {
        flags |= l->flags() & (kFlagRead | kFlagSubtreeRead |
                               kFlagSubtreeHasWrites);
      }
      out->set_flags(flags);
      if (i_top != nullptr &&
          intent_.snapshot_seq <= ctx_.group_base->snapshot_seq) {
        out->set_ssv(i_top->ssv());
      } else if (BaseInside(l.get())) {
        out->set_ssv(l->ssv());
      } else {
        out->set_ssv(l->vn());
      }
    }
    // Gap flags: aligned intervals carry the intention's gap marks into
    // the output (they feed later melds' phantom checks); the split path
    // already degraded them to the page-level flag above.
    if (i_top != nullptr) {
      const WideExt& ie = *i_top->wide();
      for (int j = 0; j <= ie.count(); ++j) {
        oe.set_gap_read(j, ie.gap_read(j));
      }
    }
    return Ref::To(out);
  }

  // --- The merge recursion -------------------------------------------

  Result<Ref> Rec(Ref i_edge, const Ref& l_edge) {
    NormalizeIntentEdge(&i_edge);
    const Node* i = i_edge.node.get();
    if (!Inside(i)) {
      // Null, lazy, or a snapshot pointer: the intention asserts nothing
      // in this interval; the base state's content stands.
      return l_edge;
    }
    Visit();
    if (!i->is_wide()) {
      return Status::Internal("meld: binary node inside wide intention");
    }
    if (l_edge.IsNull()) return IntoMissing(i_edge);
    HYDER_ASSIGN_OR_RETURN(NodePtr l, Materialize(l_edge));
    if (!l->is_wide()) {
      return Status::Internal("meld: mixed tree layouts (wide vs binary)");
    }

    if (!ctx_.disable_graft_fastpath && !i->ssv().IsNull() &&
        i->ssv() == l->vn()) {
      // Page graft fast path: the base still holds the exact page version
      // this subtree was derived from.
      if (ctx_.work != nullptr) ctx_.work->grafts++;
      if (ctx_.output_is_state && !i->subtree_has_writes()) {
        return Ref::To(l);
      }
      return i_edge;
    }

    HYDER_RETURN_IF_ERROR(CheckPagePhantom(i, l.get()));

    const WideExt& le = *l->wide();
    if (SameKeySet(i, l.get())) {
      // Aligned pages: merge slot-by-slot, no split copies.
      const WideExt& ie = *i->wide();
      std::vector<SlotData> eqs(le.count());
      for (int j = 0; j < le.count(); ++j) {
        eqs[j] = SlotData::From(ie.slot(j));
        HYDER_RETURN_IF_ERROR(CheckSlotConflict(eqs[j], l.get(),
                                                le.slot(j), j));
      }
      std::vector<Ref> children(le.count() + 1);
      for (int j = 0; j <= le.count(); ++j) {
        HYDER_ASSIGN_OR_RETURN(
            children[j], Rec(ie.child(j).GetLocal(), le.child(j).GetLocal()));
      }
      return MergePage(i, /*i_marks=*/false, l, eqs, std::move(children));
    }

    // Layouts diverged (concurrent splits/collapses): split the intention
    // content by the base page's keys and meld piecewise. The intention
    // side's structural marks cannot be mapped onto the base layout, so
    // they degrade to a page-level mark on the output.
    const bool i_marks = i->page_structural_read();
    std::vector<SlotData> eqs(le.count());
    std::vector<Ref> pieces(le.count() + 1);
    Ref rest = i_edge;
    for (int j = 0; j < le.count(); ++j) {
      HYDER_ASSIGN_OR_RETURN(SplitOut sp, SplitOne(rest, le.slot(j).key));
      pieces[j] = std::move(sp.less);
      eqs[j] = std::move(sp.eq);
      rest = std::move(sp.greater);
    }
    pieces[le.count()] = std::move(rest);
    for (int j = 0; j < le.count(); ++j) {
      if (eqs[j].present) {
        HYDER_RETURN_IF_ERROR(CheckSlotConflict(eqs[j], l.get(),
                                                le.slot(j), j));
      }
    }
    std::vector<Ref> children(le.count() + 1);
    for (int j = 0; j <= le.count(); ++j) {
      HYDER_ASSIGN_OR_RETURN(children[j],
                             Rec(pieces[j], le.child(j).GetLocal()));
    }
    return MergePage(/*i_top=*/nullptr, i_marks, l, eqs,
                     std::move(children));
  }

  // --- Tombstones ----------------------------------------------------

  Status ApplyTombstones(const Ref& base_root, Ref* melded) {
    if (intent_.tombstones.empty()) return Status::OK();
    for (const Tombstone& t : intent_.tombstones) {
      // Locate the key in the base tree.
      HYDER_ASSIGN_OR_RETURN(NodePtr cur, Materialize(base_root));
      bool found = false;
      int found_idx = 0;
      while (cur) {
        Visit();
        const WideFind f = WideSearchPage(*cur, t.key);
        if (f.found) {
          found = true;
          found_idx = f.index;
          break;
        }
        if (cur->wide()->child(f.index).IsNullEdge()) {
          cur = nullptr;
          break;
        }
        HYDER_ASSIGN_OR_RETURN(cur,
                               cur->wide()->child(f.index).Get(ctx_.resolver));
      }
      if (found) {
        const WideSlot& s = cur->wide()->slot(found_idx);
        const bool eligible =
            ctx_.mode == MeldMode::kState ||
            (BaseInside(cur.get()) && s.altered());
        if (eligible && s.meta.cv != t.base_cv) {
          return AbortSlot(AbortCause::kAbortWriteWrite, t.key, found_idx,
                           "delete write-write");
        }
        // The output loses key t.key, so it cannot hold the page cur
        // either.
        if (ctx_.deleted_ephemerals != nullptr && cur->vn().IsEphemeral()) {
          ctx_.deleted_ephemerals->push_back(cur->vn());
        }
      } else {
        if (ctx_.mode == MeldMode::kState && !t.base_cv.IsNull()) {
          return AbortSlot(AbortCause::kAbortWriteWrite, t.key, -1,
                           "delete-delete");
        }
      }
      // Apply to the melded tree.
      TreeOpStats delete_stats;
      CowContext cc;
      cc.owner = ctx_.out_tag;
      cc.resolver = ctx_.resolver;
      cc.vn_alloc = ctx_.alloc;
      cc.preserve_owners = &intent_.inside;
      cc.stats = &delete_stats;
      HYDER_ASSIGN_OR_RETURN(*melded, TreeRemove(cc, *melded, t.key,
                                                 nullptr, nullptr, nullptr));
      if (ctx_.work != nullptr) {
        ctx_.work->nodes_visited += delete_stats.nodes_visited;
        ctx_.work->ephemeral_created += delete_stats.nodes_created;
      }
    }
    return Status::OK();
  }

  const MeldContext& ctx_;
  const Intention& intent_;
};

}  // namespace

Result<Ref> RunWideMeld(const MeldContext& ctx, const Intention& intent,
                        const Ref& base_root) {
  WideMelder melder(ctx, intent);
  return melder.Run(base_root);
}

}  // namespace hyder
