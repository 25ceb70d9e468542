#ifndef HYDER2_SERVER_SERVER_H_
#define HYDER2_SERVER_SERVER_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/registry.h"
#include "common/retry.h"
#include "meld/pipeline.h"
#include "server/resolver.h"
#include "txn/codec.h"
#include "txn/intention_builder.h"

namespace hyder {

/// Per-server configuration.
struct ServerOptions {
  int server_id = 0;
  PipelineConfig pipeline;
  ResolverOptions resolver;
  IsolationLevel default_isolation = IsolationLevel::kSerializable;
  /// Payload encoding this server emits for its own intentions (decoding is
  /// always auto-detected, so servers with different settings interoperate
  /// on one log — the v2/v3 migration story).
  WireFormat wire_format = WireFormat::kV3;
  /// Admission control: maximum transactions appended but not yet decided
  /// (§5.2 — "the executer stops processing transactions if the number of
  /// transactions awaiting their outcome exceeds a configurable threshold").
  size_t max_inflight = 1600;
  /// Melds between ephemeral-table sweeps (each timed into the
  /// `server.sweep_us` histogram).
  uint64_t sweep_interval = 1024;
  /// Bounded retry-with-backoff for transient (`Unavailable`) log errors in
  /// the append (Submit) and tail-read (Poll) paths. Retried appends may
  /// duplicate blocks in the log (lost acks); the assembler's duplicate
  /// filter keeps them from melding twice.
  RetryPolicy log_retry;
};

/// One optimistically executing transaction (§1, steps 1–2). Obtained from
/// `HyderServer::Begin`; all operations run against the immutable snapshot
/// the server held at Begin time, accumulating effects in a private
/// intention. Hand it back via `Submit`/`Commit` to append it to the log.
class Transaction {
 public:
  Status Put(Key key, std::string value) {
    return builder_.Put(key, std::move(value));
  }
  Result<std::optional<std::string>> Get(Key key) { return builder_.Get(key); }
  Result<bool> Delete(Key key) { return builder_.Delete(key); }
  Result<std::vector<std::pair<Key, std::string>>> Scan(Key lo, Key hi) {
    return builder_.Scan(lo, hi);
  }

  uint64_t txn_id() const { return txn_id_; }
  IsolationLevel isolation() const { return builder_.isolation(); }
  bool has_writes() const { return builder_.has_writes(); }
  uint64_t snapshot_seq() const { return builder_.snapshot_seq(); }

 private:
  friend class HyderServer;
  Transaction(uint64_t txn_id, IntentionBuilder builder)
      : txn_id_(txn_id), builder_(std::move(builder)) {}

  uint64_t txn_id_;
  IntentionBuilder builder_;
};

/// One Hyder II transaction server (§5.2): executes transactions against
/// locally cached snapshots, serializes intentions into blocks on the shared
/// log, and rolls the log forward through the meld pipeline. Every server
/// sharing a log must run the same pipeline configuration (§3.4).
///
/// Thread model: this simulation drives the pipeline via `Poll` from the
/// caller's thread (on the single-core evaluation host the multithreaded
/// pipeline cannot add wall-clock speedup; see DESIGN.md). The class is not
/// itself thread-safe; use one instance per thread or external locking.
class HyderServer {
 public:
  /// Degraded-mode flag (lagging-server catch-up, DESIGN.md "Log truncation
  /// & catch-up"): a server that is rebuilding from a checkpoint and
  /// replaying the tail reports `kCatchingUp` and refuses new transactions
  /// with `Busy` until it rejoins at the cluster tail.
  enum class ServeState { kServing, kCatchingUp };

  HyderServer(SharedLog* log, ServerOptions options);

  /// Bootstrap constructor (see server/checkpoint.h): starts the pipeline
  /// at `initial` (a reconstructed checkpoint state) and the log cursor at
  /// `start_position`; intention sequences continue from initial.seq + 1.
  HyderServer(SharedLog* log, ServerOptions options, DatabaseState initial,
              uint64_t start_position);

  /// Starts a transaction against the latest locally-known committed state.
  Transaction Begin();
  Transaction Begin(IsolationLevel isolation);

  /// Starts a transaction against the historical state after intention
  /// `seq` — time-travel reads over the multi-versioned database. Fails
  /// with SnapshotTooOld once the state has left the retention window.
  /// Write transactions begun this way are valid too: they simply carry a
  /// long conflict zone and abort if anything they touched has changed.
  Result<Transaction> BeginAt(uint64_t seq, IsolationLevel isolation);

  struct Submitted {
    uint64_t txn_id = 0;
    /// Read-only transactions are decided immediately (they commit locally
    /// and never touch the log, §1).
    bool decided = false;
    bool committed = false;
  };

  /// Serializes and appends the transaction's intention. The outcome
  /// becomes available through `Poll`/`Outcome` once this server's meld
  /// passes the intention. Fails with `Busy` when admission control is at
  /// its in-flight limit.
  Result<Submitted> Submit(Transaction&& txn);

  /// Rolls the log forward: reads new blocks, deserializes completed
  /// intentions and runs them through the meld pipeline. Returns all
  /// decisions made (for transactions from every server).
  Result<std::vector<MeldDecision>> Poll(size_t max_intentions = SIZE_MAX);

  /// Convenience for synchronous callers: Submit, then Poll until decided.
  /// With group meld enabled a lone trailing transaction can stay paired-
  /// pending until more traffic arrives; that returns `TimedOut`.
  Result<bool> Commit(Transaction&& txn);

  /// Outcome of a locally submitted transaction, if decided.
  std::optional<bool> Outcome(uint64_t txn_id) const;

  DatabaseState LatestState() { return pipeline_.states().Latest(); }
  size_t inflight() const { return pending_.size(); }
  const PipelineStats& stats() const { return pipeline_.stats(); }
  SequentialPipeline& pipeline() { return pipeline_; }
  ServerResolver& resolver() { return resolver_; }
  const ServerOptions& options() const { return options_; }
  SharedLog* log() { return log_; }
  /// Intentions whose blocks are only partially seen (checkpoint quiescence
  /// check).
  size_t assembler_pending() const { return assembler_.pending(); }
  /// The next log position this server will read.
  uint64_t next_read_position() const { return next_read_pos_; }
  /// Blocks dropped while tailing: torn/garbage blocks that fail header
  /// decoding (every server skips them identically).
  uint64_t skipped_blocks() const { return skipped_blocks_; }
  /// Retried-append duplicate blocks filtered by the assembler.
  uint64_t duplicate_blocks() const { return duplicate_blocks_; }

  /// Crash-recovery id-space repair: notes a transaction id observed in the
  /// log (or a checkpoint directory) and, when it belongs to this server's
  /// id, advances the local sequence counter past it. A restarted server
  /// replaying the log therefore never re-issues a (server id, local seq)
  /// pair from a previous incarnation — the invariant the duplicate-append
  /// filter rests on. Called internally by `Poll`; checkpoint bootstrap
  /// calls it for every directory entry.
  void ObserveTxnId(uint64_t txn_id);

  /// Next-unissued local sequence per origin (`txn_id >> 40`), covering
  /// every block header this server has read plus everything seeded from a
  /// checkpoint. A checkpoint writer — at the tail by the quiescence
  /// checks — exports this map so bootstrapping servers recover their id
  /// floor even for intentions the checkpoint directory no longer names
  /// (fully superseded ones, and orphaned partial appends) whose log
  /// blocks truncation may since have reclaimed. Without it a restarted
  /// server could re-issue such an id, and the duplicate-append filter
  /// would weld chunks of two different intentions together.
  const std::map<uint64_t, uint64_t>& txn_floors() const {
    return txn_floors_;
  }
  /// Raises the per-origin floors (and this server's own sequence counter)
  /// to at least `floors`. Checkpoint bootstrap only.
  void SeedTxnFloors(const std::map<uint64_t, uint64_t>& floors);
  /// This server's own next local sequence (the floor it would need after
  /// a restart).
  uint64_t next_local_txn() const { return next_txn_; }

  ServeState serve_state() const { return serve_state_; }
  /// Transitions the degradation state machine (catch-up driver only).
  void set_serve_state(ServeState s) { serve_state_ = s; }

  /// Truncation precondition (see server/truncation.h): pins checkpoint
  /// state `state_seq` as this server's resolution floor and retires every
  /// older retained state. The pin is a complete vn -> node map of S,
  /// built by materializing S's tree while the pre-S log prefix is still
  /// readable; after truncation, lazy references below S resolve from the
  /// pin instead of the reclaimed log. Fails with SnapshotTooOld when S
  /// already left the retention window (the caller must pick a newer
  /// checkpoint) and NotFound when S is not yet published here (the caller
  /// must poll this server to the tail first).
  Status PinStateForTruncation(uint64_t state_seq);

 private:
  SharedLog* const log_;
  const ServerOptions options_;
  ServerResolver resolver_;
  SequentialPipeline pipeline_;
  IntentionAssembler assembler_;
  uint64_t next_txn_ = 1;
  /// See txn_floors(). Ordered so checkpoint serialization is canonical.
  std::map<uint64_t, uint64_t> txn_floors_;
  /// Frozen copy of the floors seeded at checkpoint bootstrap; Poll drops
  /// blocks below them (late retried-append copies of pre-checkpoint
  /// intentions a fresh assembler would otherwise re-meld). Empty on
  /// servers that replayed from the log's start.
  std::map<uint64_t, uint64_t> bootstrap_txn_floors_;
  uint64_t next_read_pos_;
  ServeState serve_state_ = ServeState::kServing;
  uint64_t melds_since_sweep_ = 0;
  uint64_t skipped_blocks_ = 0;
  uint64_t duplicate_blocks_ = 0;
  /// Positions of blocks per not-yet-completed intention (for the
  /// directory), keyed by txn id.
  std::unordered_map<uint64_t, std::vector<uint64_t>> partial_positions_;
  std::unordered_set<uint64_t> pending_;           ///< Local undecided txns.
  std::unordered_map<uint64_t, bool> outcomes_;    ///< Local decided txns.

  /// Per-stage latency histograms (global MetricsRegistry; process
  /// lifetime). append->durable covers Submit's append loop (including
  /// retries); durable->decision covers assembly-complete to meld decision.
  LatencyHistogram* const append_to_durable_us_;
  LatencyHistogram* const durable_to_decision_us_;
  /// Wall time of each periodic ephemeral sweep inside Poll.
  LatencyHistogram* const sweep_us_;
  /// Durable->decision latency of *aborted* transactions, split by the
  /// stage that made the abort decision (forensics: a premeld kill decides
  /// much earlier than a final-meld conflict). Index = AbortStage; slot 0
  /// (kNone) is unused.
  LatencyHistogram* abort_decision_us_[kAbortStageCount] = {};
  /// Assembly-completion stamps by intention seq, consumed at decision
  /// time. Bounded: group meld defers at most one undecided sequence.
  std::unordered_map<uint64_t, uint64_t> durable_ts_;

  /// Publishes "server<id>.*" (pipeline stats, resolver gauges, log-tail
  /// counters) to the global registry. Snapshots must run on the thread
  /// driving this server — the class itself is single-threaded. Declared
  /// last so the provider unregisters before members are destroyed.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_SERVER_H_
