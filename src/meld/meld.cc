#include "meld/meld.h"

#include <algorithm>
#include <vector>

#include "meld/wide_meld.h"

namespace hyder {

namespace {

/// Implementation state for one meld invocation.
class Melder {
 public:
  Melder(const MeldContext& ctx, const Intention& intent)
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
    // Nodes created by this very run (split copies) are part of the
    // intention's view too.
    return n != nullptr &&
           (n->owner() == ctx_.out_tag || intent_.Inside(*n));
  }

  /// Wire-v3 intentions arrive with lazy intra-member edges (flat_view.h):
  /// materialize them canonically through the intention's flat views before
  /// the Inside test, so the walk sees exactly the tree a v2 decode would
  /// have built — and only the nodes the walk actually reaches get built.
  /// Edges into anything outside the member set stay lazy; Inside() treats
  /// them as "base wins", matching v2 semantics.
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

  /// Deposits typed provenance in the context's sink and returns the abort
  /// Status. Allocation-free: the provenance is a POD write and `msg` must
  /// be a short static literal (fits the Status small-string buffer); the
  /// human-readable reason is reconstructed lazily by AbortInfo::ToString.
  Status Abort(AbortCause cause, Key key, const char* msg) const {
    if (ctx_.abort_sink != nullptr) {
      AbortInfo& a = *ctx_.abort_sink;
      a.cause = cause;
      a.conflict = cause;
      a.key_kind = AbortKeyKind::kUserKey;
      a.key = key;
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

  NodePtr NewEphemeral(Key key, std::string_view payload) const {
    NodePtr e = MakeNode(key, payload);
    e->set_owner(ctx_.out_tag);
    ctx_.alloc->Assign(e);
    if (ctx_.work != nullptr) ctx_.work->ephemeral_created++;
    return e;
  }

  /// OCC validation of one intention node against the aligned base node
  /// (Appendix A). In group mode only the base intention's own writes
  /// constitute the conflict zone (§4); apparent divergence against the
  /// base's *snapshot* is snapshot skew between the pair, left for final
  /// meld to validate via the merged metadata.
  Status CheckConflict(const Node* i, const Node* l) const {
    if (ctx_.work != nullptr) ctx_.work->conflict_checks++;
    const bool eligible =
        ctx_.mode == MeldMode::kState || (BaseInside(l) && l->altered());
    const bool content_changed = l->cv() != i->base_cv();
    if (eligible && content_changed) {
      if (i->altered()) {
        return Abort(AbortCause::kAbortWriteWrite, i->key(), "write-write");
      }
      if (Serializable() && i->read_dependent()) {
        return Abort(AbortCause::kAbortReadWrite, i->key(), "read-write");
      }
    }
    if (Serializable() && i->subtree_read()) {
      // Structural dependency: the subtree the transaction scanned must be
      // exactly the version it read. Reaching this check means the versions
      // already diverged (the graft fast-path did not fire).
      if (ctx_.mode == MeldMode::kState) {
        if (i->ssv() != l->vn()) {
          return Abort(AbortCause::kAbortPhantom, i->key(), "phantom");
        }
      } else if (BaseInside(l)) {
        return Abort(AbortCause::kAbortPhantom, i->key(), "group phantom");
      }
    }
    return Status::OK();
  }

  /// True when `melded` is the same edge the base node already holds.
  static bool SameEdge(const Ref& melded, const Ref& base) {
    if (melded.node && base.node) return melded.node.get() == base.node.get();
    if (!melded.vn.IsNull() || !base.vn.IsNull()) {
      return melded.vn == base.vn;
    }
    return melded.IsNull() && base.IsNull();
  }

  /// The validated node contributes nothing the base node does not already
  /// have: no new payload, no readset metadata that must survive into a
  /// meld output (states never need it; transaction outputs only for
  /// annotated nodes), and no structural change below. Collapsing to the
  /// base node keeps ephemeral creation proportional to writes ([8]'s
  /// original read-only-subtree behaviour).
  bool CanCollapseToBase(const Node* i, const Ref& left, const Ref& right,
                         const NodePtr& l) const {
    if (i->altered()) return false;
    if (!ctx_.output_is_state && i->flags() != 0) return false;
    return SameEdge(left, l->left().GetLocal()) &&
           SameEdge(right, l->right().GetLocal());
  }

  /// Builds the ephemeral merged node for aligned (i, l) with already-melded
  /// children.
  Result<Ref> Merge(const NodePtr& i, const NodePtr& l, Ref left, Ref right) {
    HYDER_RETURN_IF_ERROR(CheckConflict(i.get(), l.get()));
    if (CanCollapseToBase(i.get(), left, right, l)) {
      return Ref::To(l);
    }
    const bool i_altered = i->altered();
    NodePtr e = NewEphemeral(i->key(),
                             i_altered ? i->payload() : l->payload());
    e->set_color(l->color());
    if (ctx_.mode == MeldMode::kState) {
      e->set_ssv(l->vn());
      e->set_base_cv(l->cv());
      e->set_cv(i_altered ? i->cv() : l->cv());
      e->set_flags(i->flags());
    } else {
      // Group mode (§4): the merged node's conflict metadata must make the
      // final meld validate the *maximum* of the two members' conflict
      // zones, i.e. refer to the earlier snapshot.
      const bool l_is_base_write = BaseInside(l.get()) && l->altered();
      e->set_cv(i_altered ? i->cv() : l->cv());
      uint8_t flags = i->flags();
      if (i_altered || l_is_base_write) {
        flags |= kFlagAltered | kFlagSubtreeHasWrites;
      }
      if (BaseInside(l.get())) {
        flags |= l->flags() &
                 (kFlagRead | kFlagSubtreeRead | kFlagSubtreeHasWrites);
      }
      e->set_flags(flags);
      if (intent_.snapshot_seq <= ctx_.group_base->snapshot_seq) {
        e->set_ssv(i->ssv());
        e->set_base_cv(i->base_cv());
      } else if (BaseInside(l.get())) {
        e->set_ssv(l->ssv());
        e->set_base_cv(l->base_cv());
      } else {
        // l is a node of the base's snapshot itself.
        e->set_ssv(l->vn());
        e->set_base_cv(l->cv());
      }
    }
    e->left().Reset(std::move(left));
    e->right().Reset(std::move(right));
    return Ref::To(e);
  }

  /// The base tree has no content in this interval but the intention does.
  /// In state mode that means every snapshot-derived key here was deleted by
  /// a committed concurrent transaction: validate and keep only this
  /// transaction's fresh inserts. In group mode the apparent absence may be
  /// snapshot skew, so the intention subtree passes through for final meld
  /// to validate.
  Result<Ref> IntoMissing(const Ref& i_edge) {
    if (ctx_.mode == MeldMode::kGroup) return i_edge;
    std::vector<NodePtr> kept;
    HYDER_RETURN_IF_ERROR(CollectSurvivors(i_edge, &kept));
    if (kept.empty()) return Ref::Null();
    return BuildBalanced(kept, 0, kept.size(), Height(kept.size()));
  }

  Status CollectSurvivors(Ref edge, std::vector<NodePtr>* kept) {
    NormalizeIntentEdge(&edge);
    const Node* n = edge.node.get();
    if (!Inside(n)) return Status::OK();  // Outside/lazy: deleted region.
    Visit();
    HYDER_RETURN_IF_ERROR(CollectSurvivors(n->left().GetLocal(), kept));
    // Snapshot-derived nodes have provenance; fresh inserts have neither
    // field. (Split copies clear ssv but keep base_cv, so test both.)
    if (!n->ssv().IsNull() || !n->base_cv().IsNull()) {
      // The key existed in the snapshot but is gone from the base state:
      // the subtree this intention grafted onto was concurrently deleted.
      if (n->altered()) {
        return Abort(AbortCause::kAbortGraft, n->key(), "write vs delete");
      }
      if (Serializable() && n->read_dependent()) {
        return Abort(AbortCause::kAbortGraft, n->key(), "read vs delete");
      }
      if (Serializable() && n->subtree_read()) {
        return Abort(AbortCause::kAbortPhantom, n->key(), "scan vs delete");
      }
      // Path copy only: the concurrent delete wins; drop it.
    } else if (n->altered()) {
      kept->push_back(edge.node);  // Fresh insert: keep.
    }
    return CollectSurvivors(n->right().GetLocal(), kept);
  }

  static int Height(size_t n) {
    int h = 0;
    while (n > 0) {
      ++h;
      n >>= 1;
    }
    return h;
  }

  /// Deterministically rebuilds kept inserts (already key-sorted) into a
  /// valid red-black subtree: nodes at the deepest level are red.
  Ref BuildBalanced(const std::vector<NodePtr>& items, size_t lo, size_t hi,
                    int black_levels) {
    if (lo >= hi) return Ref::Null();
    const size_t mid = lo + (hi - lo) / 2;
    const Node* src = items[mid].get();
    NodePtr e = NewEphemeral(src->key(), src->payload());
    e->set_flags(src->flags());
    e->set_cv(src->cv());
    // ssv/base_cv stay null: this is an insert.
    e->set_color(black_levels > 1 ? Color::kBlack : Color::kRed);
    e->left().Reset(BuildBalanced(items, lo, mid, black_levels - 1));
    e->right().Reset(BuildBalanced(items, mid + 1, hi, black_levels - 1));
    return Ref::To(e);
  }

  struct SplitOut {
    Ref less;
    NodePtr eq;
    Ref greater;
  };

  /// Splits the in-intention subtree at `edge` around key `k`. Outside
  /// references contribute nothing: their meld value is "the base wins",
  /// which is what an empty piece produces as well.
  Result<SplitOut> Split(Ref edge, Key k) {
    SplitOut out;
    NormalizeIntentEdge(&edge);
    const Node* n = edge.node.get();
    if (!Inside(n)) return out;
    Visit();
    if (ctx_.work != nullptr) ctx_.work->splits++;
    if (n->key() == k) {
      out.less = n->left().GetLocal();
      out.eq = edge.node;
      out.greater = n->right().GetLocal();
      return out;
    }
    if (k < n->key()) {
      HYDER_ASSIGN_OR_RETURN(SplitOut inner, Split(n->left().GetLocal(), k));
      NodePtr e = CopyForSplit(edge.node);
      e->left().Reset(std::move(inner.greater));
      out.less = std::move(inner.less);
      out.eq = std::move(inner.eq);
      out.greater = Ref::To(e);
    } else {
      HYDER_ASSIGN_OR_RETURN(SplitOut inner, Split(n->right().GetLocal(), k));
      NodePtr e = CopyForSplit(edge.node);
      e->right().Reset(std::move(inner.less));
      out.less = Ref::To(e);
      out.eq = std::move(inner.eq);
      out.greater = std::move(inner.greater);
    }
    return out;
  }

  /// Ephemeral copy for the split path. Flags and content provenance
  /// survive so conflict checks still fire for the relocated node, but the
  /// *structure* version is cleared: the copy's subtree is incomplete (the
  /// split replaces outside-reference edges with null, relying on the base
  /// side to supply that content during the merge), so the graft fast-path
  /// must never return it wholesale.
  NodePtr CopyForSplit(const NodePtr& n) const {
    NodePtr e = NewEphemeral(n->key(), n->payload());
    e->set_ssv(VersionId());
    e->set_base_cv(n->base_cv());
    e->set_cv(n->cv());
    e->set_flags(n->flags());
    e->set_color(n->color());
    e->left().Reset(n->left().GetLocal());
    e->right().Reset(n->right().GetLocal());
    return e;
  }

  /// The merge recursion. `i_edge` and `l_edge` span the same key interval.
  Result<Ref> Rec(Ref i_edge, const Ref& l_edge) {
    NormalizeIntentEdge(&i_edge);
    const Node* i = i_edge.node.get();
    if (!Inside(i)) {
      // Null, lazy, or a snapshot pointer: the intention asserts nothing in
      // this interval, so the base state's content stands (committed
      // concurrent updates included).
      return l_edge;
    }
    Visit();
    if (l_edge.IsNull()) return IntoMissing(i_edge);
    HYDER_ASSIGN_OR_RETURN(NodePtr l, Materialize(l_edge));

    if (!ctx_.disable_graft_fastpath && !i->ssv().IsNull() &&
        i->ssv() == l->vn()) {
      // Fast path: the base still holds the exact version this subtree was
      // derived from — nothing concurrent happened anywhere under it.
      if (ctx_.work != nullptr) ctx_.work->grafts++;
      if (ctx_.output_is_state && !i->subtree_has_writes()) {
        // Read-only matching subtree into a *state*: return the base side —
        // [8]'s original line 7. No ephemeral structure enters the state
        // for pure reads.
        return Ref::To(l);
      }
      // Otherwise graft the intention subtree; returning *i* (not l) keeps
      // the writes and, for meld outputs that feed another meld, the
      // readset metadata (§3.3's one-line modification).
      return i_edge;
    }

    if (i->key() == l->key()) {
      HYDER_ASSIGN_OR_RETURN(Ref left,
                             Rec(i->left().GetLocal(), l->left().GetLocal()));
      HYDER_ASSIGN_OR_RETURN(
          Ref right, Rec(i->right().GetLocal(), l->right().GetLocal()));
      return Merge(i_edge.node, l, std::move(left), std::move(right));
    }

    // Keys diverged: concurrent rebalancing moved the subtree roots apart.
    // Split the intention content by the base key and meld piecewise.
    HYDER_ASSIGN_OR_RETURN(SplitOut sp, Split(i_edge, l->key()));
    HYDER_ASSIGN_OR_RETURN(Ref left, Rec(sp.less, l->left().GetLocal()));
    HYDER_ASSIGN_OR_RETURN(Ref right,
                           Rec(sp.greater, l->right().GetLocal()));
    if (sp.eq) {
      return Merge(sp.eq, l, std::move(left), std::move(right));
    }
    // No intention node carries this key: the base node passes through
    // (with rebuilt children), or verbatim when nothing below it changed.
    if (SameEdge(left, l->left().GetLocal()) &&
        SameEdge(right, l->right().GetLocal())) {
      return Ref::To(l);
    }
    NodePtr e = NewEphemeral(l->key(), l->payload());
    e->set_ssv(ctx_.mode == MeldMode::kState || !BaseInside(l.get())
                   ? l->vn()
                   : l->ssv());
    e->set_base_cv(ctx_.mode == MeldMode::kState || !BaseInside(l.get())
                       ? l->cv()
                       : l->base_cv());
    e->set_cv(l->cv());
    e->set_color(l->color());
    if (ctx_.mode == MeldMode::kGroup && BaseInside(l.get())) {
      e->set_flags(l->flags());
    }
    e->left().Reset(std::move(left));
    e->right().Reset(std::move(right));
    return Ref::To(e);
  }

  /// Validates tombstones against the base tree, then applies the deletions
  /// to the melded result (idempotently — the key may already be absent
  /// when the structural merge grafted a subtree that lacks it).
  Status ApplyTombstones(const Ref& base_root, Ref* melded) {
    if (intent_.tombstones.empty()) return Status::OK();
    for (const Tombstone& t : intent_.tombstones) {
      // Locate the key in the base tree.
      HYDER_ASSIGN_OR_RETURN(NodePtr cur, Materialize(base_root));
      while (cur && cur->key() != t.key) {
        Visit();
        HYDER_ASSIGN_OR_RETURN(cur,
                               cur->child(t.key > cur->key()).Get(
                                   ctx_.resolver));
      }
      if (cur) {
        const bool eligible = ctx_.mode == MeldMode::kState ||
                              (BaseInside(cur.get()) && cur->altered());
        if (eligible && cur->cv() != t.base_cv) {
          return Abort(AbortCause::kAbortWriteWrite, t.key,
                       "delete write-write");
        }
        // The output loses key t.key, so it cannot hold cur either.
        if (ctx_.deleted_ephemerals != nullptr && cur->vn().IsEphemeral()) {
          ctx_.deleted_ephemerals->push_back(cur->vn());
        }
      } else {
        if (ctx_.mode == MeldMode::kState && !t.base_cv.IsNull()) {
          return Abort(AbortCause::kAbortWriteWrite, t.key, "delete-delete");
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

/// Layout dispatch: a wide intention or base tree melds through the wide
/// operator (wide_meld.cc); layout mismatches between the two surface as
/// Internal errors inside the melders. A delete-only intention against a
/// lazy base resolves the base root once (memoized by the resolver) to
/// learn the layout.
Result<bool> MeldInputIsWide(const MeldContext& ctx, const Intention& intent,
                             const Ref& base_root) {
  if (intent.root.node) return intent.root.node->is_wide();
  if (base_root.node) return base_root.node->is_wide();
  if (!base_root.vn.IsNull() && ctx.resolver != nullptr) {
    HYDER_ASSIGN_OR_RETURN(NodePtr b, ctx.resolver->Resolve(base_root.vn));
    return b && b->is_wide();
  }
  return false;
}

}  // namespace

Result<MeldResult> Meld(const MeldContext& ctx, const Intention& intent,
                        const Ref& base_root) {
  if (ctx.alloc == nullptr) {
    return Status::InvalidArgument("meld requires an ephemeral allocator");
  }
  if (ctx.mode == MeldMode::kGroup && ctx.group_base == nullptr) {
    return Status::InvalidArgument("group meld requires the base intention");
  }
  HYDER_ASSIGN_OR_RETURN(const bool wide, MeldInputIsWide(ctx, intent,
                                                          base_root));
  // Install a local provenance sink (unless the caller brought one) so the
  // melders deposit typed AbortInfo instead of building reason strings.
  AbortInfo abort;
  MeldContext local = ctx;
  if (local.abort_sink == nullptr) local.abort_sink = &abort;
  Melder melder(local, intent);
  Result<Ref> melded =
      wide ? RunWideMeld(local, intent, base_root) : melder.Run(base_root);
  MeldResult result;
  if (melded.ok()) {
    result.root = std::move(*melded);
    return result;
  }
  if (melded.status().IsAborted()) {
    result.conflict = true;
    result.abort = *local.abort_sink;
    if (!result.abort.aborted()) {
      // Defensive: an abort path that forgot its provenance still reports a
      // typed (if anonymous) conflict. hyder-check pins that none exist.
      result.abort.cause = AbortCause::kAbortWriteWrite;
      result.abort.conflict = AbortCause::kAbortWriteWrite;
    }
    return result;
  }
  return melded.status();  // Real fault.
}

}  // namespace hyder
