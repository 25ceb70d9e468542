#include "server/server.h"


#include <algorithm>
#include "common/stopwatch.h"
#include "common/trace.h"

namespace hyder {

HyderServer::HyderServer(SharedLog* log, ServerOptions options)
    : HyderServer(log, options, DatabaseState{0, Ref::Null()},
                  /*start_position=*/1) {}

HyderServer::HyderServer(SharedLog* log, ServerOptions options,
                         DatabaseState initial, uint64_t start_position)
    : log_(log),
      options_(options),
      resolver_(log, options.resolver),
      pipeline_(options.pipeline, initial, &resolver_,
                [this](const NodePtr& n) { resolver_.RegisterEphemeral(n); }),
      assembler_(initial.seq + 1),
      next_read_pos_(start_position),
      append_to_durable_us_(MetricsRegistry::Global().histogram(
          "pipeline.append_to_durable_us")),
      durable_to_decision_us_(MetricsRegistry::Global().histogram(
          "pipeline.durable_to_decision_us")),
      sweep_us_(MetricsRegistry::Global().histogram("server.sweep_us")) {
  // Ephemeral liveness: the pipeline reports what each published state
  // gained and dropped, and sweeps keep whatever a retained state holds.
  pipeline_.set_publish_observer(
      [this](const PublishDelta& delta) { resolver_.NotePublished(delta); });
  resolver_.TrackRetention(&pipeline_.states());
  for (int s = 1; s < kAbortStageCount; ++s) {
    abort_decision_us_[s] = MetricsRegistry::Global().histogram(
        std::string("pipeline.abort_decision_us.") +
        AbortStageName(static_cast<AbortStage>(s)));
  }
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "server" + std::to_string(options_.server_id),
      [this](const MetricsRegistry::Emit& emit) {
        pipeline_.stats().EmitTo("pipeline", emit);
        resolver_.EmitMetrics("resolver", emit);
        emit("inflight", double(pending_.size()));
        emit("assembler_pending", double(assembler_.pending()));
        emit("skipped_blocks", double(skipped_blocks_));
        emit("duplicate_blocks", double(duplicate_blocks_));
        emit("next_read_position", double(next_read_pos_));
        emit("catching_up",
             serve_state_ == ServeState::kCatchingUp ? 1.0 : 0.0);
        // Contention heatmap: the hottest conflicting keys the meld thread
        // has seen (top-K sketch; `err` bounds how much `count` may
        // overstate the true frequency).
        const TopKSketch& sketch = pipeline_.contention();
        emit("contention.total_conflict_keys", double(sketch.total()));
        size_t rank = 0;
        for (const TopKSketch::Entry& e : sketch.Entries()) {
          if (rank >= 16) break;
          const std::string p = "contention." + std::to_string(rank);
          emit(p + ".key", double(e.key));
          emit(p + ".count", double(e.count));
          emit(p + ".err", double(e.error));
          ++rank;
        }
      });
}

Transaction HyderServer::Begin() { return Begin(options_.default_isolation); }

Transaction HyderServer::Begin(IsolationLevel isolation) {
  const uint64_t txn_id =
      (uint64_t(options_.server_id + 1) << 40) | next_txn_++;
  DatabaseState snapshot = pipeline_.states().Latest();
  IntentionBuilder builder(kWorkspaceTagBit | txn_id, snapshot.seq,
                           snapshot.root, isolation, &resolver_,
                           options_.pipeline.tree_fanout);
  return Transaction(txn_id, std::move(builder));
}

Result<Transaction> HyderServer::BeginAt(uint64_t seq,
                                          IsolationLevel isolation) {
  const uint64_t txn_id =
      (uint64_t(options_.server_id + 1) << 40) | next_txn_++;
  HYDER_ASSIGN_OR_RETURN(DatabaseState snapshot,
                         pipeline_.states().Get(seq));
  IntentionBuilder builder(kWorkspaceTagBit | txn_id, snapshot.seq,
                           snapshot.root, isolation, &resolver_,
                           options_.pipeline.tree_fanout);
  return Transaction(txn_id, std::move(builder));
}

Result<HyderServer::Submitted> HyderServer::Submit(Transaction&& txn) {
  if (serve_state_ == ServeState::kCatchingUp) {
    // Graceful degradation: while replaying toward the cluster tail this
    // server's snapshots are stale, so it routes new work elsewhere rather
    // than issuing doomed intentions.
    return Status::Busy("server is catching up and not accepting work");
  }
  Submitted out;
  out.txn_id = txn.txn_id();
  if (!txn.has_writes()) {
    // Read-only transactions commit locally against their snapshot; they
    // are never logged or melded (§1).
    out.decided = true;
    out.committed = true;
    return out;
  }
  if (pending_.size() >= options_.max_inflight) {
    return Status::Busy("in-flight transaction limit reached (" +
                        std::to_string(options_.max_inflight) + ")");
  }
  TraceInstant(TraceStage::kSubmit, txn.txn_id());
  HYDER_ASSIGN_OR_RETURN(
      std::vector<std::string> blocks,
      SerializeIntention(txn.builder_, txn.txn_id(), log_->block_size(),
                         options_.wire_format));
  Stopwatch append_watch;
  {
    TraceSpan append_span(TraceStage::kAppend, txn.txn_id());
    for (const std::string& block : blocks) {
      // Transient append failures are ambiguous: the block may or may not
      // have landed. Retrying is safe because the assembler drops duplicate
      // copies by (txn id, block index); positions are re-discovered while
      // tailing the log, which keeps remote and local intentions on one
      // code path.
      HYDER_ASSIGN_OR_RETURN(
          uint64_t pos,
          RetryTransient(
              options_.log_retry, [&] { return log_->Append(block); },
              [this](const Status&) { log_->RecordRetry(); }));
      (void)pos;
    }
  }
  append_to_durable_us_->Add(append_watch.ElapsedNanos() / 1000);
  TraceInstant(TraceStage::kDurable, txn.txn_id());
  pending_.insert(txn.txn_id());
  return out;
}

Result<std::vector<MeldDecision>> HyderServer::Poll(size_t max_intentions) {
  std::vector<MeldDecision> all;
  size_t processed = 0;
  while (processed < max_intentions && next_read_pos_ < log_->Tail()) {
    // Transient read errors retry in place (the cursor has not advanced);
    // permanent ones — e.g. DataLoss from a checksum mismatch — surface to
    // the caller rather than silently melding damaged bytes.
    HYDER_ASSIGN_OR_RETURN(
        std::string block,
        RetryTransient(
            options_.log_retry, [&] { return log_->Read(next_read_pos_); },
            [this](const Status&) { log_->RecordRetry(); }));
    const uint64_t pos = next_read_pos_++;
    Result<BlockHeader> header_or = DecodeBlockHeader(block);
    if (!header_or.ok()) {
      // Torn or garbage block (e.g. a partial write recovered from a crashed
      // appender). Its chunk can never satisfy the header's length check, so
      // every server makes the same content-based decision to skip it —
      // sequence determinism holds.
      skipped_blocks_++;
      continue;
    }
    const BlockHeader& header = *header_or;
    if (header.txn_id & (1ull << 63)) {
      // Checkpoint block (server/checkpoint.h): not an intention; every
      // server skips it identically, preserving sequence determinism.
      continue;
    }
    ObserveTxnId(header.txn_id);
    if (!bootstrap_txn_floors_.empty()) {
      // A retried-append copy of a pre-checkpoint intention can land above
      // the checkpoint's resume position. Veterans drop it through their
      // assembler's seen-state; a bootstrapped server has no such memory,
      // so it filters by the checkpoint's per-origin floors instead (every
      // id below the floor was decided — or orphaned and abandoned —
      // before the checkpoint; per-origin append order guarantees no NEW
      // id below the floor can first appear above resume).
      const uint64_t origin = header.txn_id >> 40;
      auto floor = bootstrap_txn_floors_.find(origin);
      if (floor != bootstrap_txn_floors_.end() &&
          (header.txn_id & ((1ull << 40) - 1)) < floor->second) {
        duplicate_blocks_++;
        continue;
      }
    }
    HYDER_ASSIGN_OR_RETURN(auto fed, assembler_.AddBlock(block));
    if (fed.duplicate) {
      // Retried-append copy; the original already accounted this block.
      duplicate_blocks_++;
      continue;
    }
    if (!fed.completed.has_value()) {
      partial_positions_[header.txn_id].push_back(pos);
      continue;
    }
    auto& done = fed.completed;
    partial_positions_[header.txn_id].push_back(pos);

    auto positions = std::move(partial_positions_[header.txn_id]);
    partial_positions_.erase(header.txn_id);
    resolver_.RecordIntentionBlocks(done->seq, std::move(positions),
                                    done->txn_id);

    // All of the intention's blocks are durable and assembled: stamp for
    // the durable->decision histogram (consumed below once meld decides).
    durable_ts_[done->seq] = Stopwatch::NowNanos();
    if (options_.pipeline.stage_probe) {
      // Chaos probe at the decode boundary (the other boundaries live
      // inside the pipeline). A non-OK return is a simulated crash: the
      // caller must discard this server, not re-Poll it.
      HYDER_RETURN_IF_ERROR(
          options_.pipeline.stage_probe(PipelineStage::kDecode, done->seq));
    }
    std::vector<NodePtr> nodes;
    CpuStopwatch ds_cpu;
    IntentionPtr intent;
    {
      TraceSpan decode_span(TraceStage::kDecode, done->seq);
      HYDER_ASSIGN_OR_RETURN(
          intent,
          DeserializeIntention(done->payload, done->seq, done->block_count,
                               &resolver_, done->txn_id, &nodes));
      pipeline_.mutable_stats()->deserialize.cpu_nanos +=
          ds_cpu.ElapsedNanos();
      pipeline_.mutable_stats()->deserialize.nodes_visited +=
          intent->node_count;
      // A flat (v3) intention decodes to a view instead of a node array:
      // cache the view, and cached lookups materialize nodes on demand.
      resolver_.CacheIntention(done->seq, std::move(nodes),
                               intent->flats.empty()
                                   ? nullptr
                                   : intent->flats.front().second);
    }

    HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> decisions,
                           pipeline_.Process(std::move(intent)));
    processed++;
    for (const MeldDecision& d : decisions) {
      auto ts = durable_ts_.find(d.seq);
      if (ts != durable_ts_.end()) {
        const uint64_t us = (Stopwatch::NowNanos() - ts->second) / 1000;
        durable_to_decision_us_->Add(us);
        const size_t stage = static_cast<size_t>(d.abort.stage);
        if (!d.committed && stage > 0 && stage < kAbortStageCount) {
          abort_decision_us_[stage]->Add(us);
        }
        durable_ts_.erase(ts);
      }
      if (pending_.erase(d.txn_id) > 0) {
        outcomes_[d.txn_id] = d.committed;
      }
      all.push_back(d);
    }
    if (++melds_since_sweep_ >= options_.sweep_interval) {
      melds_since_sweep_ = 0;
      Stopwatch sweep_watch;
      resolver_.SweepEphemerals();
      sweep_us_->Add(sweep_watch.ElapsedNanos() / 1000);
    }
  }
  return all;
}

Result<bool> HyderServer::Commit(Transaction&& txn) {
  const uint64_t id = txn.txn_id();
  HYDER_ASSIGN_OR_RETURN(Submitted sub, Submit(std::move(txn)));
  if (sub.decided) return sub.committed;
  for (;;) {
    HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> decisions, Poll());
    auto it = outcomes_.find(id);
    if (it != outcomes_.end()) {
      bool committed = it->second;
      outcomes_.erase(it);
      return committed;
    }
    if (decisions.empty() && next_read_pos_ >= log_->Tail()) {
      // Log drained and still undecided: the intention sits in a group-meld
      // pair buffer awaiting a partner from future traffic.
      return Status::TimedOut(
          "transaction awaiting a group-meld pair; drive more traffic or "
          "use Submit/Poll");
    }
  }
}

Status HyderServer::PinStateForTruncation(uint64_t state_seq) {
  HYDER_ASSIGN_OR_RETURN(DatabaseState state,
                         pipeline_.states().Get(state_seq));
  // Materialize all of S while the pre-S prefix is still readable. A state
  // is a tree (no sharing within one version), so the walk is linear; the
  // dedup guard is defensive only.
  std::unordered_map<VersionId, NodePtr> pinned;
  NodePtr root = state.root.node;
  if (!root && !state.root.vn.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(root, resolver_.Resolve(state.root.vn));
  }
  std::vector<NodePtr> stack;
  if (root) stack.push_back(std::move(root));
  while (!stack.empty()) {
    NodePtr n = std::move(stack.back());
    stack.pop_back();
    if (!n->vn().IsNull() && !pinned.emplace(n->vn(), n).second) continue;
    for (int i = 0; i < n->child_count(); ++i) {
      HYDER_ASSIGN_OR_RETURN(NodePtr c, n->child_at(i).Get(&resolver_));
      if (c) stack.push_back(std::move(c));
    }
  }
  resolver_.ReplacePinnedBase(state_seq, std::move(pinned));
  // States older than the pin would resolve through the truncated prefix;
  // retire them now (BeginAt below S answers SnapshotTooOld, the same
  // contract as the retention window).
  pipeline_.states().RetireBelow(state_seq);
  return Status::OK();
}

void HyderServer::ObserveTxnId(uint64_t txn_id) {
  if (txn_id & (1ull << 63)) return;  // Checkpoint marker, not a txn id.
  const uint64_t origin = txn_id >> 40;
  const uint64_t local_seq = txn_id & ((1ull << 40) - 1);
  // Track every origin, not just our own: a checkpoint written by this
  // server must carry floors other servers can restart from once the log
  // prefix holding their ids is truncated (see txn_floors()).
  uint64_t& floor = txn_floors_[origin];
  if (local_seq >= floor) floor = local_seq + 1;
  if (origin != uint64_t(options_.server_id) + 1) return;
  if (local_seq >= next_txn_) next_txn_ = local_seq + 1;
}

void HyderServer::SeedTxnFloors(const std::map<uint64_t, uint64_t>& floors) {
  for (const auto& [origin, floor] : floors) {
    uint64_t& mine = txn_floors_[origin];
    mine = std::max(mine, floor);
    // The bootstrap-time snapshot stays frozen: it gates only late copies
    // of PRE-checkpoint intentions (see Poll); post-bootstrap duplicates
    // are the assembler's job, exactly as on a veteran.
    uint64_t& boot = bootstrap_txn_floors_[origin];
    boot = std::max(boot, floor);
    if (origin == uint64_t(options_.server_id) + 1 && floor > next_txn_) {
      next_txn_ = floor;
    }
  }
}

std::optional<bool> HyderServer::Outcome(uint64_t txn_id) const {
  auto it = outcomes_.find(txn_id);
  if (it == outcomes_.end()) return std::nullopt;
  return it->second;
}

}  // namespace hyder
