#ifndef HYDER2_TXN_CODEC_H_
#define HYDER2_TXN_CODEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "txn/intention.h"
#include "txn/intention_builder.h"

namespace hyder {

/// Wire format (see also DESIGN.md):
///
/// An intention serializes to a byte stream — header (txn id, snapshot seq,
/// isolation, tombstones, node count) followed by the nodes in **post-order**
/// (§5.2: "post-order ensures that each node points to children that are
/// either in the log or already serialized"; the block containing the root
/// is appended last). Each node carries its key, flags, provenance
/// (ssv/base_cv), payload, and two child references that are either
/// *internal* (the post-order index of another node in this intention) or
/// *external* (the raw VersionId of a node outside it).
///
/// The stream is chopped into fixed-size intention blocks, each with a
/// 20-byte header {txn_id, block_index, block_count, chunk_len}; blocks of
/// one intention need not be contiguous in the log (§5.1).
///
/// Wire v3 ("flat", DESIGN.md "Intention wire format v3") keeps the exact
/// per-record byte layout but frames it for in-place reading: a magic
/// prefix, the node region's byte length, and a trailing fixed32 offset
/// table addressing every record. Deserializing a v3 payload builds a
/// FlatIntentionView and materializes only the root node; everything else
/// materializes lazily on first touch (txn/flat_view.h). The decoder
/// auto-detects the version, so v2 payloads in existing logs and
/// checkpoints stay readable.

/// Fixed per-block header size.
constexpr size_t kBlockHeaderSize = 20;

/// Payload encoding SerializeIntention emits. Decoding is always
/// auto-detected from the payload bytes.
enum class WireFormat : uint8_t {
  kV2 = 2,  ///< Seed format: sequential records, eager materialization.
  kV3 = 3,  ///< Flat format: offset table, lazy (zero-copy) materialization.
};

struct BlockHeader {
  uint64_t txn_id = 0;
  uint32_t index = 0;
  uint32_t total = 0;
  uint32_t chunk_len = 0;
};

void EncodeBlockHeader(const BlockHeader& h, std::string* out);
Result<BlockHeader> DecodeBlockHeader(std::string_view block);

/// Serializes the transaction accumulated in `builder` into intention
/// blocks of at most `block_size` bytes. Fails if the workspace contains a
/// foreign provisional node (a bug) or if a single node exceeds a block.
/// `wire` selects the payload encoding; servers in one cluster must agree
/// only on what they *emit* per intention, not globally — every decoder
/// reads both.
Result<std::vector<std::string>> SerializeIntention(
    const IntentionBuilder& builder, uint64_t txn_id, size_t block_size,
    WireFormat wire = WireFormat::kV3);

/// Parses a reassembled intention payload. `seq` is the deterministic
/// log-order sequence assigned by the assembler; node `i` receives
/// `VersionId::Logged(seq, i)` and owner tag `seq`. External references
/// are pre-materialized cache-only through `ephemeral_resolver` where the
/// node is at hand (every node's edges for v2, the root's for v3); the
/// rest stay lazy and resolve on first use, ephemeral ones through the
/// server's ephemeral table (they cannot be refetched from the log).
Result<IntentionPtr> DeserializeIntention(std::string_view payload,
                                          uint64_t seq, uint32_t block_count,
                                          NodeResolver* ephemeral_resolver,
                                          uint64_t txn_id = 0,
                                          std::vector<NodePtr>* nodes_out = nullptr);

/// Reassembles intention payloads from the block stream, assigning each
/// completed intention its sequence number in completion order — the order
/// of each intention's **last** block in the log, which is identical on
/// every server and is what makes meld deterministic (§2, §5.1).
///
/// Duplicate-append filtering: an appender whose log reported `Unavailable`
/// cannot know whether its block landed, so it retries — and may land the
/// same block twice (the ambiguous-append problem). The transaction id in
/// every block header encodes the intention's (server id, local sequence)
/// pair, which the server never reuses (crash recovery re-derives the local
/// sequence floor from the log / checkpoint directory), so the assembler can
/// recognize a second copy — of a block already held, or of a whole
/// intention already completed — and drop it. The decision is a pure
/// function of the block stream, so every tailing server filters
/// identically and sequence numbering stays deterministic. A "duplicate"
/// whose bytes *differ* from the original is not a retry but corruption and
/// fails loudly.
class IntentionAssembler {
 public:
  /// `first_seq` is the sequence the next completed intention receives
  /// (1 for a fresh log; checkpoint_seq + 1 when bootstrapping).
  explicit IntentionAssembler(uint64_t first_seq = 1)
      : next_seq_(first_seq) {}

  struct Completed {
    uint64_t seq = 0;
    uint64_t txn_id = 0;
    uint32_t block_count = 0;
    std::string payload;
  };

  struct FeedOutcome {
    /// Set when this block was the final piece of an intention.
    std::optional<Completed> completed;
    /// The block was a retried-append duplicate and was ignored; callers
    /// must not account the block against the intention (e.g. in the
    /// position directory).
    bool duplicate = false;
  };

  /// Feeds the block at the next log position.
  Result<FeedOutcome> AddBlock(std::string_view block);

  /// Number of intentions still awaiting blocks.
  size_t pending() const { return partial_.size(); }

 private:
  struct Partial {
    std::vector<std::string> chunks;
    uint32_t received = 0;
    uint32_t total = 0;
  };
  uint64_t next_seq_;
  std::unordered_map<uint64_t, Partial> partial_;
  /// Txn ids whose intentions already completed — one word per intention,
  /// the price of exactly-once assembly over an ambiguous append channel.
  std::unordered_set<uint64_t> completed_;
};

}  // namespace hyder

#endif  // HYDER2_TXN_CODEC_H_
