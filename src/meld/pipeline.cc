#include "meld/pipeline.h"

#include "common/lock_counter.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "txn/flat_view.h"

namespace hyder {

namespace {

/// Charges the meld thread's resolver lock acquisitions to
/// `stats->fm_resolver_locks` across a scope (thread-local counter delta,
/// so concurrent premeld workers' resolver traffic is not misattributed).
class MeldThreadLockDelta {
 public:
  explicit MeldThreadLockDelta(PipelineStats* stats)
      : stats_(stats), start_(ResolverLockCount()) {}
  ~MeldThreadLockDelta() {
    stats_->fm_resolver_locks += ResolverLockCount() - start_;
  }

 private:
  PipelineStats* const stats_;
  const uint64_t start_;
};
/// Ephemeral thread-id assignment: final meld is thread 0, group meld is
/// thread 1, premeld threads are 2..t+1. The slots are fixed (independent
/// of t) so that any two engines running the same (t, d, group)
/// configuration — sequential or multithreaded — generate identical
/// two-part ephemeral identities (§3.4).
constexpr uint32_t kFinalMeldThreadId = 0;
constexpr uint32_t kGroupMeldThreadId = 1;
constexpr uint32_t kPremeldThreadIdBase = 2;

/// Collects one committed final meld's PublishDelta (see pipeline.h).
class PublishDeltaCollector {
 public:
  PublishDeltaCollector(const Intention& intent, uint64_t out_tag,
                        const Ref& base_root, NodeResolver* resolver,
                        PublishDelta* delta)
      : intent_(intent),
        out_tag_(out_tag),
        base_root_(base_root),
        resolver_(resolver),
        delta_(delta) {}

  /// New nodes are the ones this meld made or the intention brought (owner
  /// tags); everything else under them was already published and is not
  /// entered. New ephemerals are linked by strong reference (meld never
  /// leaves an edge to a node it created lazy), but a new logged node can
  /// sit behind a lazy edge: a v3 member's intra-intention edges stay lazy
  /// until something walks them, and group meld passes the earlier
  /// member's edges through as they are. Such an edge is recognised by its
  /// id: a logged id of one of the intention's members.
  void Walk(const Ref& root) {
    Visit(root.node.get(), root.vn);
    while (!stack_.empty()) {
      const Node* n = stack_.back();
      stack_.pop_back();
      if (n->owner() != out_tag_ && !intent_.Inside(*n)) continue;
      if (n->vn().IsLogged()) {
        Graft(n->vn(), n);
        continue;
      }
      delta_->born.push_back(n->vn());
      ForEachSsv(*n, [this](VersionId s) { Replaced(s); });
      if (!n->is_wide() && n->ssv().IsNull() && !n->base_cv().IsNull()) {
        // A split copy: derived from a snapshot node but stripped of its
        // ssv (its subtree is partial). Group meld can pass one through
        // into a grafted subtree; the base node holding its key is gone.
        ReplacedAtKey(n->key());
      }
      for (int c = 0; c < n->child_count(); ++c) {
        const ChildSlot& slot = n->child_at(c);
        Visit(slot.Peek(), slot.vn());
      }
    }
  }

 private:
  bool IsMember(VersionId vn) const {
    if (!vn.IsLogged()) return false;
    for (uint64_t tag : intent_.inside) {
      if (tag == vn.intention_seq()) return true;
    }
    return false;
  }

  const FlatIntentionView* ViewOf(VersionId vn) const {
    for (const auto& [member, view] : intent_.flats) {
      if (member == vn.intention_seq()) return view.get();
    }
    return nullptr;
  }

  void Visit(const Node* node, VersionId vn) {
    if (node != nullptr) {
      stack_.push_back(node);
    } else if (IsMember(vn)) {
      Graft(vn, nullptr);
    }
  }

  /// `s` is named as replaced by a node new in the state. A member's own
  /// logged node was never in a state: the new node is a meld-internal
  /// copy of it (group meld applies the later member's deletes to the
  /// earlier member's nodes), and what the state lost is whatever that
  /// member node was derived from.
  void Replaced(VersionId s) {
    if (s.IsEphemeral()) {
      delta_->replaced.push_back(s);
    } else if (IsMember(s)) {
      if (const FlatIntentionView* view = ViewOf(s)) {
        view->AppendRecordEphemeralSsvs(s.node_index(), &delta_->replaced);
      } else if (NodePtr m = resolver_ != nullptr
                                 ? resolver_->TryResolveCached(s)
                                 : nullptr) {
        ReplacedBy(*m);
      }
    }
  }

  /// The ephemerals logged node `n` replaced (its ssvs).
  void ReplacedBy(const Node& n) {
    ForEachSsv(n, [this](VersionId s) {
      if (s.IsEphemeral()) delta_->replaced.push_back(s);
    });
  }

  /// Names the base state's node for `key`, found by a cache-only
  /// descent (a miss just leaves that node to a later replacement).
  void ReplacedAtKey(Key key) {
    NodePtr cur = Cached(base_root_.node, base_root_.vn);
    while (cur != nullptr && !cur->is_wide()) {
      if (cur->key() == key) {
        if (cur->vn().IsEphemeral()) delta_->replaced.push_back(cur->vn());
        return;
      }
      const Ref edge = cur->child(key > cur->key()).GetLocal();
      cur = Cached(edge.node, edge.vn);
    }
  }

  NodePtr Cached(const NodePtr& node, VersionId vn) const {
    if (node != nullptr || vn.IsNull() || resolver_ == nullptr) return node;
    return resolver_->TryResolveCached(vn);
  }

  /// Grafted member node `vn`: every record of its intra-intention subtree
  /// is in the new state, so each node those records replaced is not. `g`
  /// is the node when materialized (null behind a lazy edge).
  void Graft(VersionId vn, const Node* g) {
    if (const FlatIntentionView* view = ViewOf(vn)) {
      view->AppendSubtreeEphemeralSsvs(vn.node_index(), &delta_->replaced);
      return;
    }
    // Eager (v2) decode: every intra-intention edge is materialized.
    if (g == nullptr) return;
    std::vector<const Node*> stack{g};
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      ReplacedBy(*n);
      for (int c = 0; c < n->child_count(); ++c) {
        const Node* child = n->child_at(c).Peek();
        if (child != nullptr && child->owner() == g->owner()) {
          stack.push_back(child);
        }
      }
    }
  }

  const Intention& intent_;
  const uint64_t out_tag_;
  const Ref& base_root_;
  NodeResolver* const resolver_;
  PublishDelta* const delta_;
  std::vector<const Node*> stack_;
};
}  // namespace

AbortInfo MakeAdmissionRejectAbort() {
  AbortInfo a;
  a.cause = AbortCause::kAbortBusy;
  a.conflict = AbortCause::kAbortBusy;
  a.stage = AbortStage::kAdmission;
  return a;
}

void SequentialPipeline::NoteAbort(const MeldDecision& d) {
  stats_.RecordAbort(d.abort);
  if (d.abort.key_kind == AbortKeyKind::kUserKey) {
    contention_.Offer(d.abort.key);
  }
  TraceInstant(TraceStage::kAbort, d.seq,
               static_cast<uint32_t>(d.abort.cause));
}

SequentialPipeline::SequentialPipeline(
    const PipelineConfig& config, DatabaseState initial,
    NodeResolver* resolver, std::function<void(const NodePtr&)> registrar)
    : config_(config),
      states_(config.state_retention, initial),
      resolver_(resolver),
      fm_alloc_(kFinalMeldThreadId),
      gm_alloc_(kGroupMeldThreadId) {
  fm_alloc_.registrar = registrar;
  gm_alloc_.registrar = registrar;
  for (int t = 0; t < config_.premeld_threads; ++t) {
    pm_allocs_.push_back(std::make_unique<EphemeralAllocator>(
        kPremeldThreadIdBase + uint32_t(t)));
    pm_allocs_.back()->registrar = registrar;
  }
  // Prefixes for seqs 0..initial.seq (zero history when bootstrapping from
  // a checkpoint: pre-checkpoint conflict-zone block counts are unknown and
  // irrelevant — premeld targets beyond retention fail with SnapshotTooOld
  // as they would on any server).
  block_prefix_.assign(states_.Latest().seq + 1, 0);
  published_seq_ = states_.Latest().seq;
  // Config echo (see ConfigEcho): each knob is stamped where it is
  // consumed. Retention and fanout are consumed right here, at state-table
  // construction / snapshot layout selection.
  ConfigEcho echo;
  echo.state_retention = static_cast<int64_t>(config_.state_retention);
  echo.tree_fanout = config_.tree_fanout;
  stats_.config_echo.Observe(echo);
}

uint64_t SequentialPipeline::BlocksUpTo(uint64_t seq) const {
  if (seq >= block_prefix_.size()) return block_prefix_.back();
  return block_prefix_[seq];
}

std::vector<uint64_t> SequentialPipeline::EphemeralCounters() const {
  std::vector<uint64_t> counters;
  counters.reserve(2 + pm_allocs_.size());
  counters.push_back(fm_alloc_.next_seq());
  counters.push_back(gm_alloc_.next_seq());
  for (const auto& a : pm_allocs_) counters.push_back(a->next_seq());
  return counters;
}

void SequentialPipeline::RestoreEphemeralCounters(
    const std::vector<uint64_t>& counters) {
  if (counters.size() > 0) fm_alloc_.set_next_seq(counters[0]);
  if (counters.size() > 1) gm_alloc_.set_next_seq(counters[1]);
  for (size_t t = 0; t + 2 < counters.size() && t < pm_allocs_.size(); ++t) {
    pm_allocs_[t]->set_next_seq(counters[t + 2]);
  }
}

Result<std::vector<MeldDecision>> SequentialPipeline::Process(
    IntentionPtr intent) {
  MeldThreadLockDelta lock_delta(&stats_);
  if (intent->seq != block_prefix_.size()) {
    return Status::InvalidArgument(
        "pipeline requires consecutive sequences; got " +
        std::to_string(intent->seq));
  }
  // (Txn id 0 is only used by codec-level tests that feed bare intentions;
  // real servers always stamp a nonzero (server id, local seq) id.)
  if (intent->txn_id != 0 && !fed_txns_.insert(intent->txn_id).second) {
    return Status::Internal(
        "transaction " + std::to_string(intent->txn_id) +
        " reached the meld pipeline twice — a retried append was not "
        "deduplicated and would commit twice");
  }
  block_prefix_.push_back(block_prefix_.back() + intent->block_count);
  stats_.intentions++;

  // --- Premeld stage (Algorithm 1). ---
  {
    ConfigEcho echo;
    echo.premeld_threads = config_.premeld_threads;
    echo.premeld_distance = config_.premeld_distance;
    stats_.config_echo.Observe(echo);
  }
  if (config_.premeld_threads > 0 && !intent->known_aborted) {
    // The probe guards the stage actually running: the threaded engine runs
    // premeld in its own workers (its embedded engine has t == 0) and fires
    // this boundary there, so the two engines see one schedule.
    if (config_.stage_probe) {
      HYDER_RETURN_IF_ERROR(
          config_.stage_probe(PipelineStage::kPremeld, intent->seq));
    }
    const int thread =
        PremeldThreadFor(intent->seq, config_.premeld_threads);
    TraceSpan span(TraceStage::kPremeld, intent->seq);
    CpuStopwatch cpu;
    MeldWork work;
    HYDER_ASSIGN_OR_RETURN(
        PremeldOutcome out,
        RunPremeld(intent, states_, config_.premeld_threads,
                   config_.premeld_distance, pm_allocs_[thread].get(),
                   resolver_, &work, config_.disable_graft_fastpath));
    work.cpu_nanos = cpu.ElapsedNanos();
    stats_.premeld += work;
    if (out.skipped) stats_.premeld_skips++;
    if (out.intention->known_aborted) stats_.premeld_aborts++;
    stats_.premeld_killed_nodes += out.killed_nodes;
    stats_.premeld_killed_nodes_materialized += out.killed_nodes_materialized;
    intent = out.intention;
  }
  return AfterPremeld(std::move(intent));
}

Result<std::vector<MeldDecision>> SequentialPipeline::AfterPremeld(
    IntentionPtr intent) {
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kHandoff, intent->seq));
  }
  {
    ConfigEcho echo;
    echo.group_meld = config_.group_meld ? 1 : 0;
    stats_.config_echo.Observe(echo);
  }
  if (!config_.group_meld) return FinalMeld(std::move(intent));
  // --- Group meld stage (§4): pair odd seq with the following even seq. ---
  if (!pending_group_) {
    pending_group_ = std::move(intent);
    return std::vector<MeldDecision>{};
  }
  IntentionPtr first = std::move(pending_group_);
  pending_group_ = nullptr;
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kGroupMeld, intent->seq));
  }
  TraceSpan span(TraceStage::kGroupMeld, intent->seq);
  CpuStopwatch cpu;
  MeldWork work;
  HYDER_ASSIGN_OR_RETURN(
      GroupOutcome out,
      RunGroupMeld(first, intent, &gm_alloc_, resolver_, &work));
  work.cpu_nanos = cpu.ElapsedNanos();
  stats_.group_meld += work;

  std::vector<MeldDecision> decisions;
  if (out.second_aborted) {
    // The later member conflicted with the earlier one inside the pair (or
    // was already premeld-aborted): it aborts now; the earlier one proceeds
    // alone as the group intention.
    decisions.push_back(
        MeldDecision{intent->seq, intent->txn_id, false, out.second_abort});
    NoteAbort(decisions.back());
    stats_.aborted++;
    stats_.group_singletons++;
  }
  if (out.intention == nullptr) {
    // Both members were already known (from premeld) to abort.
    for (const IntentionPtr& member : {first, intent}) {
      for (const auto& [seq, txn] : member->members) {
        decisions.push_back(
            MeldDecision{seq, txn, false, member->abort_info});
        NoteAbort(decisions.back());
        stats_.aborted++;
      }
    }
    PublishUpTo(intent->seq, states_.Latest().root);
    return decisions;
  }
  if (out.intention->members.size() == 1 && !out.second_aborted &&
      out.intention.get() == intent.get() && first->known_aborted) {
    decisions.push_back(
        MeldDecision{first->seq, first->txn_id, false, first->abort_info});
    NoteAbort(decisions.back());
    stats_.aborted++;
  }
  HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> fm,
                         FinalMeld(out.intention));
  // Guarantee states exist for every sequence up to the pair's end even
  // when the group collapsed to its first member.
  PublishUpTo(intent->seq, states_.Latest().root);
  decisions.insert(decisions.end(), fm.begin(), fm.end());
  return decisions;
}

Result<std::vector<MeldDecision>> SequentialPipeline::Flush() {
  MeldThreadLockDelta lock_delta(&stats_);
  if (!pending_group_) return std::vector<MeldDecision>{};
  IntentionPtr last = std::move(pending_group_);
  pending_group_ = nullptr;
  stats_.group_singletons++;
  return FinalMeld(std::move(last));
}

void SequentialPipeline::PublishUpTo(uint64_t seq, const Ref& root) {
  while (published_seq_ < seq) {
    ++published_seq_;
    states_.Publish(DatabaseState{published_seq_, root});
    TraceInstant(TraceStage::kPublish, published_seq_);
  }
}

Result<std::vector<MeldDecision>> SequentialPipeline::FinalMeld(
    IntentionPtr intent) {
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kFinalMeld, intent->seq));
  }
  std::vector<MeldDecision> decisions;
  if (intent->known_aborted) {
    // Premeld already proved the conflict; final meld skips the intention
    // entirely (§3.1) and the state passes through unchanged.
    for (const auto& [seq, txn] : intent->members) {
      decisions.push_back(MeldDecision{seq, txn, false, intent->abort_info});
      NoteAbort(decisions.back());
      stats_.aborted++;
    }
    PublishUpTo(intent->seq, states_.Latest().root);
    return decisions;
  }

  TraceSpan span(TraceStage::kFinalMeld, intent->seq);
  DatabaseState latest = states_.Latest();
  MeldContext ctx;
  ctx.out_tag = intent->seq | kFinalTagBit;
  ctx.alloc = &fm_alloc_;
  ctx.resolver = resolver_;
  MeldWork work;
  ctx.work = &work;
  ctx.mode = MeldMode::kState;
  ctx.output_is_state = true;
  ctx.disable_graft_fastpath = config_.disable_graft_fastpath;
  {
    ConfigEcho echo;
    echo.disable_graft_fastpath = config_.disable_graft_fastpath ? 1 : 0;
    stats_.config_echo.Observe(echo);
  }
  PublishDelta delta;
  if (publish_observer_) ctx.deleted_ephemerals = &delta.replaced;
  CpuStopwatch cpu;
  HYDER_ASSIGN_OR_RETURN(MeldResult melded, Meld(ctx, *intent, latest.root));
  if (publish_observer_ && !melded.conflict) {
    delta.first_seq = published_seq_ + 1;
    PublishDeltaCollector(*intent, ctx.out_tag, latest.root, resolver_,
                          &delta)
        .Walk(melded.root);
    publish_observer_(delta);
  }
  work.cpu_nanos = cpu.ElapsedNanos();
  stats_.final_meld += work;
  stats_.final_melds++;
  stats_.conflict_zone_sum +=
      block_prefix_.back() - BlocksUpTo(intent->snapshot_seq);

  const Ref& new_root = melded.conflict ? latest.root : melded.root;
  AbortInfo abort = melded.abort;
  abort.stage = AbortStage::kFinalMeld;
  abort.blamed_seq = latest.seq;
  if (intent->members.size() > 1) {
    // A group intention aborts as a unit (§4 fate sharing): the members'
    // decision-level cause is fate sharing; the conflict the meld actually
    // proved stays in `conflict` (and the key fields still name it).
    abort.cause = AbortCause::kAbortGroupFateSharing;
  }
  for (const auto& [seq, txn] : intent->members) {
    if (melded.conflict) {
      decisions.push_back(MeldDecision{seq, txn, false, abort});
      NoteAbort(decisions.back());
      stats_.aborted++;
    } else {
      decisions.push_back(MeldDecision{seq, txn, true, AbortInfo{}});
      stats_.committed++;
    }
  }
  PublishUpTo(intent->seq, new_root);
  return decisions;
}

}  // namespace hyder
