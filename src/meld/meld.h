#ifndef HYDER2_MELD_MELD_H_
#define HYDER2_MELD_MELD_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "tree/tree_ops.h"
#include "txn/intention.h"

namespace hyder {

/// How the meld operator interprets its inputs.
///
/// The paper's central abstraction (§3.3): meld's output is itself a
/// transaction <S_in, S_out>, so one operator — with the readset-preserving
/// modification — implements final meld, premeld, and (with the §4 special
/// metadata logic) group meld.
enum class MeldMode {
  /// Meld an intention into a database state: the roll-forward OCC step.
  /// Used identically by final meld and premeld; only the inputs differ.
  kState,
  /// Combine intention `i` with a *preceding adjacent intention* acting as
  /// the base tree (§4). Conflict checks are restricted to nodes the base
  /// intention actually wrote, and merged metadata refers to the earlier of
  /// the two snapshots so final meld validates the maximum conflict zone.
  kGroup,
};

/// Result of one meld operator invocation.
struct MeldResult {
  /// True when the transaction experienced a conflict; `abort` explains.
  bool conflict = false;
  /// Typed provenance of the conflict (common/abort_info.h), built
  /// allocation-free at the abort site. The meld operator fills cause /
  /// conflict / key; callers stamp stage and blamed_seq, which only they
  /// know. `abort.ToString()` reconstructs the old free-form reason.
  AbortInfo abort;
  /// Root of the melded output (valid when `!conflict`).
  Ref root;

  std::string reason() const { return abort.ToString(); }
};

/// Everything one meld invocation needs.
struct MeldContext {
  /// Owner tag for nodes this run creates; must be unique per run and
  /// derived deterministically from the intention sequence (see
  /// kPremeldTagBit / kGroupTagBit).
  uint64_t out_tag = 0;
  /// Deterministic ephemeral-id allocator of the executing pipeline thread.
  EphemeralAllocator* alloc = nullptr;
  /// Resolves lazy (logged) and registered (ephemeral) references.
  NodeResolver* resolver = nullptr;
  /// Work counters (nodes visited, ephemerals created, ...).
  MeldWork* work = nullptr;
  MeldMode mode = MeldMode::kState;
  /// Group mode only: the base intention (the earlier of the pair), used to
  /// scope conflict checks to nodes it wrote.
  const Intention* group_base = nullptr;
  /// True when the output is a database state (final meld) rather than a
  /// transaction to be melded again (premeld / group meld). States need no
  /// readset metadata, so validated read-only regions collapse back to the
  /// base subtree instead of being copied — the original meld's behaviour
  /// ([8] line 7, before the §3.3 modification), which keeps ephemeral
  /// creation proportional to *writes*, as the paper's Fig. 24 measures.
  bool output_is_state = false;
  /// Ablation switch: disables the ssv==vn subtree-graft fast path, forcing
  /// full descent everywhere. Decisions are unchanged (the descent performs
  /// the same per-node checks); only the work explodes. Never enable in a
  /// mixed cluster — like every meld parameter it changes ephemeral-id
  /// sequences (§3.4).
  bool disable_graft_fastpath = false;
  /// Final meld with a liveness feed only (null elsewhere): receives the
  /// ephemeral id of each base node a tombstone deletes. Meaningful only
  /// when the meld commits; the caller discards it on a conflict.
  std::vector<VersionId>* deleted_ephemerals = nullptr;
  /// Where the melder deposits typed provenance when it detects a conflict.
  /// `Meld()` installs its own sink and copies it into MeldResult::abort,
  /// so external callers can leave this null.
  AbortInfo* abort_sink = nullptr;
};

/// The meld operator. Melds `intent` into the tree rooted at `base_root`
/// (a database state in kState mode; the earlier intention's tree in kGroup
/// mode), performing optimistic concurrency control per `intent->isolation`:
///
///  * write-write conflicts — always detected (content versions diverge);
///  * read-write conflicts — under serializable isolation, via the readset
///    annotations carried in the intention;
///  * phantoms — via the subtree-read structural annotations;
///  * delete conflicts — via tombstones, checked against the base and then
///    applied to the melded result.
///
/// On success returns the melded root; nodes created by the run are
/// ephemeral (never logged) with ids from `ctx.alloc` (§2, §3.4). A
/// conflict is reported in MeldResult (not as an error Status); error
/// Statuses indicate real faults (corruption, retired snapshots).
Result<MeldResult> Meld(const MeldContext& ctx, const Intention& intent,
                        const Ref& base_root);

/// The deterministic premeld input index (Algorithm 1, line 1): with `t`
/// premeld threads and premeld distance `d`, intention `v` premelds against
/// the state produced by intention v - t*d - 1 (0 = initial state).
inline uint64_t PremeldTargetSeq(uint64_t v, int t, int d) {
  const uint64_t back = uint64_t(t) * uint64_t(d) + 1;
  return v > back ? v - back : 0;
}

/// The premeld thread that owns intention `v` (Algorithm 1: id modulo t).
inline int PremeldThreadFor(uint64_t v, int t) {
  return static_cast<int>(v % uint64_t(t));
}

}  // namespace hyder

#endif  // HYDER2_MELD_MELD_H_
