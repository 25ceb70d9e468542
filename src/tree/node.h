#ifndef HYDER2_TREE_NODE_H_
#define HYDER2_TREE_NODE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "tree/node_pool.h"
#include "tree/version_id.h"

namespace hyder {

/// Keys are fixed-width integers, as in the paper's YCSB-style evaluation
/// (4-byte keys, §6.1); we use 64 bits to allow large key spaces.
using Key = uint64_t;

/// Per-node transaction metadata flags (§2, Appendix A).
enum NodeFlags : uint8_t {
  /// The transaction wrote this node's payload ("Altered").
  kFlagAltered = 1u << 0,
  /// The transaction read this node's payload under an isolation level that
  /// validates reads ("DependsOn").
  kFlagRead = 1u << 1,
  /// The transaction depends on the *entire subtree* under this node being
  /// structurally unchanged. Set by range scans on maximal subtrees fully
  /// contained in the scanned interval; this is the phantom-avoidance
  /// metadata Appendix A alludes to.
  kFlagSubtreeRead = 1u << 2,
  /// In-memory only (computed at deserialization, propagated through meld
  /// outputs): some node in this subtree was altered/inserted by the
  /// transaction. Lets the meld graft fast-path apply the paper's §3.3
  /// distinction — read-only matching subtrees return the *base* side when
  /// the output is a state ([8]'s original line 7) and the *intention* side
  /// when the output feeds another meld (the §3.3 modification).
  kFlagSubtreeHasWrites = 1u << 3,
};

enum class Color : uint8_t { kRed = 0, kBlack = 1 };

class Node;
class WideExt;

/// Increments the reference count. `n` may be null.
inline void NodeRef(Node* n);
/// Decrements the reference count, destroying the node (and unreferencing
/// its children, iteratively) when it reaches zero. `n` may be null.
void NodeUnref(Node* n);

/// Intrusive refcounted smart pointer to an immutable tree node.
///
/// Hyder's database states are persistent trees that share structure across
/// versions; nodes are freed when the last state or intention referencing
/// them is released. Reference counts are atomic because executor threads
/// traverse snapshots while the meld pipeline publishes new states.
class NodePtr {
 public:
  NodePtr() = default;
  NodePtr(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  /// Adopts an existing reference (does NOT increment). Use `NodePtr::Share`
  /// to copy-and-increment from a raw pointer.
  static NodePtr Adopt(Node* n) { return NodePtr(n); }
  static NodePtr Share(Node* n) {
    NodeRef(n);
    return NodePtr(n);
  }

  NodePtr(const NodePtr& o) : n_(o.n_) { NodeRef(n_); }
  NodePtr(NodePtr&& o) noexcept : n_(o.n_) { o.n_ = nullptr; }
  NodePtr& operator=(const NodePtr& o) {
    if (this != &o) {
      NodeRef(o.n_);
      NodeUnref(n_);
      n_ = o.n_;
    }
    return *this;
  }
  NodePtr& operator=(NodePtr&& o) noexcept {
    if (this != &o) {
      NodeUnref(n_);
      n_ = o.n_;
      o.n_ = nullptr;
    }
    return *this;
  }
  ~NodePtr() { NodeUnref(n_); }

  Node* get() const { return n_; }
  Node* operator->() const { return n_; }
  Node& operator*() const { return *n_; }
  explicit operator bool() const { return n_ != nullptr; }

  /// Releases ownership without decrementing.
  Node* Release() {
    Node* n = n_;
    n_ = nullptr;
    return n;
  }

  void Reset() {
    NodeUnref(n_);
    n_ = nullptr;
  }

  friend bool operator==(const NodePtr& a, const NodePtr& b) {
    return a.n_ == b.n_;
  }
  friend bool operator==(const NodePtr& a, std::nullptr_t) {
    return a.n_ == nullptr;
  }

 private:
  explicit NodePtr(Node* n) : n_(n) {}
  Node* n_ = nullptr;
};

/// A child-edge value: the identity of the target plus, when materialized,
/// a strong pointer to it.
///
/// States:
///  * null edge:      `!node && vn.IsNull()`
///  * materialized:   `node != nullptr` (vn may be null for provisional
///                    nodes the executor has built but not yet logged)
///  * lazy:           `!node && !vn.IsNull()` — the paper's "node pointer
///                    left as a log position; if dereferenced later, fetched
///                    from the log" (§5.2). A lazy edge holds no reference.
///                    Its target may be ephemeral (wire-v3 intention nodes
///                    carry every external edge lazily): such targets
///                    resolve through the server's ephemeral table, which
///                    keeps them while a retained state can reach them.
struct Ref {
  NodePtr node;
  VersionId vn;

  Ref() = default;
  Ref(NodePtr n, VersionId v) : node(std::move(n)), vn(v) {}
  static Ref Null() { return Ref(); }
  static Ref Lazy(VersionId v) { return Ref(nullptr, v); }
  /// A materialized reference to `n` (shares ownership).
  static Ref To(const NodePtr& n);

  bool IsNull() const { return !node && vn.IsNull(); }
  bool IsLazy() const { return !node && !vn.IsNull(); }
};

/// Resolves lazy references. Implemented by the server layer on top of the
/// block cache and the ephemeral-node registry.
class NodeResolver {
 public:
  virtual ~NodeResolver() = default;

  /// Returns the materialized node for `vn`. Fails with:
  ///  * `SnapshotTooOld` — `vn` is ephemeral and retired from the registry;
  ///  * `NotFound` / `Corruption` — log-level failures.
  virtual Result<NodePtr> Resolve(VersionId vn) = 0;

  /// Best-effort lookup that only consults in-memory state — no log IO, no
  /// refetch, never an error. Returns null when the node is not immediately
  /// at hand; the caller keeps the reference lazy and `Resolve` handles it
  /// on first dereference. Deserialization uses this to pre-materialize
  /// external references on the decode thread, sparing the meld thread the
  /// resolver lock on first touch (the reference's identity is its version
  /// id either way, so pre-resolution cannot affect meld decisions).
  [[nodiscard]] virtual NodePtr TryResolveCached(VersionId vn) {
    return nullptr;
  }
};

/// A child slot inside a node. Holds a strong reference when materialized.
///
/// After a node is published (logged or melded into a state), the only legal
/// mutation is the lazy→materialized memoization, which is a CAS and safe
/// under concurrent readers. Before publication (executor- or meld-private
/// nodes), `Reset` may rewire the edge freely.
class ChildSlot {
 public:
  ChildSlot() = default;
  // relaxed: the destructor runs with exclusive access; any concurrent
  // lazy->materialized CAS happened-before the last reference was dropped.
  ~ChildSlot() { NodeUnref(node_.load(std::memory_order_relaxed)); }

  ChildSlot(const ChildSlot&) = delete;
  ChildSlot& operator=(const ChildSlot&) = delete;

  /// Snapshot of the edge without fetching (may be lazy).
  Ref GetLocal() const {
    Node* n = node_.load(std::memory_order_acquire);
    if (n != nullptr) return Ref(NodePtr::Share(n), vn_);
    return Ref(nullptr, vn_);
  }

  /// The materialized target without taking a reference: null while the
  /// edge is lazy or null. Valid only while the caller keeps the owning
  /// node alive (tree walks that must not touch reference counts).
  const Node* Peek() const { return node_.load(std::memory_order_acquire); }

  /// Materialized target (null NodePtr if the edge is null). Fetches through
  /// `resolver` and memoizes on first use.
  Result<NodePtr> Get(NodeResolver* resolver) const;

  /// Publishes `n` as the materialized target of a still-lazy edge — the
  /// same CAS `Get` performs after resolving, split out so decode can
  /// pre-materialize edges it already has nodes for without a resolver
  /// round trip. Legal on published nodes. The caller guarantees `n` is
  /// the node this slot's vn identifies; a lost race is a no-op (some
  /// other thread installed the canonical node first).
  void Memoize(const NodePtr& n) const {
    Node* raw = n.get();
    if (raw == nullptr) return;
    Node* expected = nullptr;
    NodeRef(raw);
    if (!node_.compare_exchange_strong(expected, raw,
                                       std::memory_order_acq_rel)) {
      NodeUnref(raw);
    }
  }

  /// Rewires the edge. Only for unpublished nodes.
  void Reset(Ref r) {
    Node* neu = r.node.Release();
    Node* old = node_.exchange(neu, std::memory_order_acq_rel);
    NodeUnref(old);
    vn_ = r.vn;
  }

  VersionId vn() const { return vn_; }
  bool IsNullEdge() const {
    return vn_.IsNull() && node_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  friend void NodeUnref(Node*);

  mutable std::atomic<Node*> node_{nullptr};
  VersionId vn_{};
};

/// Per-slot meld metadata of a wide node: the provenance triple a binary
/// node carries per node (`ssv` / `base_cv` / `cv`), plus the
/// Altered/DependsOn flags, moved to slot granularity so premeld and final
/// meld run their conflict checks per key slot instead of per page. Slot
/// *identity* is (page vn, slot index); slot *content* identity is `cv`,
/// always a logged id, exactly as for binary nodes.
struct WideSlotMeta {
  VersionId ssv{};
  VersionId base_cv{};
  VersionId cv{};
  uint8_t flags = 0;
};

/// One key slot of a wide node: key, payload and per-slot meld metadata.
/// Payload storage mirrors Node's inline/heap scheme (kNodeInlinePayloadCap
/// bytes inline in the slot, heap fallback beyond).
class WideSlot {
 public:
  WideSlot() = default;
  ~WideSlot() {
    if (heap_cap_ != 0) {
      delete[] pay_.heap;
      CountPayloadHeapFree();
    }
  }

  WideSlot(const WideSlot&) = delete;
  WideSlot& operator=(const WideSlot&) = delete;

  Key key = 0;
  WideSlotMeta meta;

  std::string_view payload() const {
    return size_ <= kNodeInlinePayloadCap
               ? std::string_view(pay_.inline_buf, size_)
               : std::string_view(pay_.heap, size_);
  }
  void set_payload(std::string_view p);

  bool altered() const { return meta.flags & kFlagAltered; }
  bool read_dependent() const { return meta.flags & kFlagRead; }

  /// Steals `o`'s payload buffer along with key and metadata (slot shifts
  /// inside one private page). `o` is left empty.
  void MoveFrom(WideSlot& o);
  /// Duplicates key, metadata and payload bytes (page clones and the
  /// deletion relocation).
  void CopyFrom(const WideSlot& o);
  /// Resets to the default-constructed state, freeing any heap payload.
  void Clear();

 private:
  union Payload {
    char inline_buf[kNodeInlinePayloadCap];
    char* heap;
  } pay_;
  uint32_t size_ = 0;
  uint32_t heap_cap_ = 0;
};

/// The wide extension of a Node: up to `cap` sorted key slots plus `cap`+1
/// child edges, allocated as one size-classed extent from the node arena
/// (see node_pool.h / btree_sizer.h). Child `i` roots the subtree of keys
/// strictly between slot `i-1` and slot `i` (classic B-tree intervals);
/// `count` live slots occupy indices [0, count) and children [0, count]
/// are meaningful. Per-gap read flags record range-scan / miss structural
/// dependencies at sub-page granularity — the wide-layout analog of
/// kFlagSubtreeRead on an absent binary subtree.
class WideExt {
 public:
  int cap() const { return cap_; }
  int count() const { return count_; }
  void set_count(int c) { count_ = static_cast<uint16_t>(c); }

  WideSlot& slot(int i) { return slots_[i]; }
  const WideSlot& slot(int i) const { return slots_[i]; }
  ChildSlot& child(int i) { return children_[i]; }
  const ChildSlot& child(int i) const { return children_[i]; }

  bool gap_read(int i) const { return gap_read_[i] != 0; }
  void set_gap_read(int i, bool v) { gap_read_[i] = v ? 1 : 0; }
  bool any_gap_read() const {
    for (int i = 0; i <= count_; ++i) {
      if (gap_read_[i]) return true;
    }
    return false;
  }
  void clear_gap_reads() {
    for (int i = 0; i <= count_; ++i) gap_read_[i] = 0;
  }

  /// Opens slot `pos`, shifting slots [pos, count) and children/gaps
  /// (pos, count] one step right. Child `pos+1` comes out as a null edge
  /// with a clear gap flag; the caller fills slot `pos` (and rewires
  /// children pos / pos+1 when splitting). Requires count < cap.
  void OpenSlot(int pos);
  /// Removes slot `pos` together with child `child_pos` (pos or pos+1;
  /// must be a null edge), closing the arrays. The two gaps flanking the
  /// removed slot merge; their read flags OR together — a structural
  /// dependency on either sub-interval becomes one on the merged interval.
  void CloseSlot(int pos, int child_pos);

 private:
  friend WideExt* CreateWideExt(int fanout);
  friend void DestroyWideExt(WideExt* ext);

  uint16_t cap_ = 0;
  uint16_t count_ = 0;
  /// Arrays live in the same extent, directly after this header.
  WideSlot* slots_ = nullptr;       ///< `cap` entries.
  ChildSlot* children_ = nullptr;   ///< `cap`+1 entries.
  uint8_t* gap_read_ = nullptr;     ///< `cap`+1 bytes.
};

/// Allocates and constructs a wide extension with `fanout` key slots from
/// the size-classed extent arena (btree_sizer picks the class).
WideExt* CreateWideExt(int fanout);
/// Destroys slots/children and returns the extent to its arena class.
void DestroyWideExt(WideExt* ext);

/// Bytes of the one-block extent backing a WideExt of `cap` slots (header
/// plus the three trailing arrays). btree_sizer rounds capacities up to a
/// slab class and sizes the class arenas with this.
size_t WideExtentBytes(int cap);

/// One immutable version of one key's node in the multi-versioned tree.
///
/// Metadata semantics (see DESIGN.md "The meld operator"):
///  * `vn`      — this version's identity.
///  * `ssv`     — id of the same-key node in the base state this version was
///                derived from ("source structure version"); null if the key
///                was inserted by the producing transaction.
///  * `base_cv` — content version of that base node: the logged id of the
///                node that created the payload the transaction observed or
///                overwrote (the paper's SCV). Null for inserts.
///  * `cv`      — content version of *this* node: the logged id that created
///                the current payload. Equals `base_cv` when not altered.
///                Content versions are always logged ids, making content
///                conflict checks independent of meld-thread configuration.
class Node {
 public:
  Node(Key key, std::string_view payload) : key_(key) {
    SetPayload(payload);
  }

  /// Wide-layout node: key slots and per-slot metadata live in `ext`; the
  /// node-level `key_`/payload/color fields are unused. Node-level `vn`,
  /// `ssv`, `owner` and flags keep their meaning at page granularity
  /// (kFlagSubtreeRead = the page's structural-read mark).
  explicit Node(WideExt* ext) : key_(0), wide_(ext) {}

  ~Node() {
    if (heap_cap_ != 0) {
      delete[] pay_.heap;
      CountPayloadHeapFree();
    }
    if (wide_ != nullptr) DestroyWideExt(wide_);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Key key() const { return key_; }

  /// The payload bytes. Stored inline in the node slot when the payload
  /// is at most `kNodeInlinePayloadCap` bytes; in a heap buffer otherwise.
  /// The view is invalidated by `set_payload`.
  std::string_view payload() const {
    return payload_size_ <= kNodeInlinePayloadCap
               ? std::string_view(pay_.inline_buf, payload_size_)
               : std::string_view(pay_.heap, payload_size_);
  }
  void set_payload(std::string_view p) { SetPayload(p); }

  /// Changes the key. Only legal during the two-children deletion
  /// relocation, on a private (unpublished) clone whose metadata is being
  /// replaced wholesale by the successor's.
  void set_key_for_relocation(Key k) { key_ = k; }

  VersionId vn() const { return vn_; }
  VersionId ssv() const { return ssv_; }
  VersionId base_cv() const { return base_cv_; }
  VersionId cv() const { return cv_; }
  void set_vn(VersionId v) { vn_ = v; }
  void set_ssv(VersionId v) { ssv_ = v; }
  void set_base_cv(VersionId v) { base_cv_ = v; }
  void set_cv(VersionId v) { cv_ = v; }

  uint64_t owner() const { return owner_; }
  void set_owner(uint64_t o) { owner_ = o; }

  Color color() const { return color_; }
  void set_color(Color c) { color_ = c; }

  uint8_t flags() const { return flags_; }
  void set_flags(uint8_t f) { flags_ = f; }
  bool altered() const { return flags_ & kFlagAltered; }
  bool read_dependent() const { return flags_ & kFlagRead; }
  bool subtree_read() const { return flags_ & kFlagSubtreeRead; }
  bool subtree_has_writes() const { return flags_ & kFlagSubtreeHasWrites; }

  ChildSlot& left() { return left_; }
  ChildSlot& right() { return right_; }
  const ChildSlot& left() const { return left_; }
  const ChildSlot& right() const { return right_; }
  ChildSlot& child(bool right_side) { return right_side ? right_ : left_; }
  const ChildSlot& child(bool right_side) const {
    return right_side ? right_ : left_;
  }

  bool is_wide() const { return wide_ != nullptr; }
  WideExt* wide() { return wide_; }
  const WideExt* wide() const { return wide_; }

  /// Layout-generic child iteration for walkers (destruction, checkpoint,
  /// registries): binary nodes expose {left, right}, wide nodes expose
  /// their `count`+1 edges.
  int child_count() const { return wide_ ? wide_->count() + 1 : 2; }
  ChildSlot& child_at(int i) {
    return wide_ ? wide_->child(i) : (i == 0 ? left_ : right_);
  }
  const ChildSlot& child_at(int i) const {
    return wide_ ? wide_->child(i) : (i == 0 ? left_ : right_);
  }

  /// The page's structural-read mark: the page-level kFlagSubtreeRead or
  /// any per-gap read flag. Meld's wide phantom check keys off this.
  bool page_structural_read() const {
    return subtree_read() || (wide_ != nullptr && wide_->any_gap_read());
  }

  /// Optimistic read validation (OLC-style seqlock). The version word is
  /// even when the node is stable and odd while a writer mutates it in
  /// place. In-place mutation is only legal on unpublished (executor- or
  /// meld-private) nodes, but a snapshot reader can race the *executor's
  /// own* later writes inside one transaction when reads are not
  /// annotated, and validate.cc probes stability; readers take a version
  /// before reading and re-check it after instead of locking.
  [[nodiscard]] uint64_t OlcReadBegin() const {
    uint64_t v = olc_.load(std::memory_order_acquire);
    while (v & 1) v = olc_.load(std::memory_order_acquire);
    return v;
  }
  [[nodiscard]] bool OlcReadValidate(uint64_t v) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    // relaxed: the fence above orders the preceding data reads against
    // this re-check; the load itself needs no edge of its own.
    return olc_.load(std::memory_order_relaxed) == v;
  }
  void OlcWriteBegin() { olc_.fetch_add(1, std::memory_order_acq_rel); }
  void OlcWriteEnd() { olc_.fetch_add(1, std::memory_order_release); }
  uint64_t olc_version() const {
    return olc_.load(std::memory_order_acquire);
  }

  uint32_t RefCount() const { return refs_.load(std::memory_order_acquire); }

 private:
  friend void NodeRef(Node*);
  friend void NodeUnref(Node*);

  /// Copies `p` into the inline buffer or the heap fallback, reusing an
  /// existing heap buffer when it is large enough. The invariant is that
  /// the payload lives inline exactly when it fits the inline cap.
  void SetPayload(std::string_view p) {
    const uint32_t size = static_cast<uint32_t>(p.size());
    if (size <= kNodeInlinePayloadCap) {
      char* old_heap = heap_cap_ != 0 ? pay_.heap : nullptr;
      // Copy before freeing: `p` may alias the old heap buffer.
      if (size != 0) std::memmove(pay_.inline_buf, p.data(), size);
      if (old_heap != nullptr) {
        delete[] old_heap;
        CountPayloadHeapFree();
        heap_cap_ = 0;
      }
    } else if (heap_cap_ >= size) {
      std::memmove(pay_.heap, p.data(), size);
    } else {
      char* buf = new char[size];
      CountPayloadHeapAlloc();
      std::memcpy(buf, p.data(), size);
      if (heap_cap_ != 0) {
        delete[] pay_.heap;
        CountPayloadHeapFree();
      }
      pay_.heap = buf;
      heap_cap_ = size;
    }
    payload_size_ = size;
  }

  std::atomic<uint32_t> refs_{1};
  Color color_ = Color::kRed;
  uint8_t flags_ = 0;
  Key key_;
  VersionId vn_{};
  VersionId ssv_{};
  VersionId base_cv_{};
  VersionId cv_{};
  uint64_t owner_ = 0;
  /// Payload storage: `inline_buf` when `payload_size_` fits the inline
  /// cap, otherwise a heap buffer of capacity `heap_cap_`.
  union Payload {
    char inline_buf[kNodeInlinePayloadCap];
    char* heap;
  } pay_;
  uint32_t payload_size_ = 0;
  uint32_t heap_cap_ = 0;
  /// Non-null for wide-layout nodes; owned (freed with the node).
  WideExt* wide_ = nullptr;
  /// OLC version word; see OlcReadBegin.
  mutable std::atomic<uint64_t> olc_{0};
  ChildSlot left_;
  ChildSlot right_;
};

/// RAII writer bump around in-place mutation of a private node, pairing
/// OlcWriteBegin/OlcWriteEnd so concurrent optimistic readers retry.
class OlcWriteGuard {
 public:
  explicit OlcWriteGuard(Node* n) : n_(n) { n_->OlcWriteBegin(); }
  ~OlcWriteGuard() { n_->OlcWriteEnd(); }
  OlcWriteGuard(const OlcWriteGuard&) = delete;
  OlcWriteGuard& operator=(const OlcWriteGuard&) = delete;

 private:
  Node* const n_;
};

inline void NodeRef(Node* n) {
  // relaxed: a new reference is always created from an existing one, so
  // the count can only be raced upward; NodeUnref's release/acquire pair
  // orders destruction.
  if (n != nullptr) n->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline Ref Ref::To(const NodePtr& n) {
  return Ref(n, n ? n->vn() : VersionId());
}

/// Calls `fn` with every id `n` names as replaced: its ssv and, for a wide
/// page, each slot's ssv (the page the slot's key came from).
template <typename Fn>
void ForEachSsv(const Node& n, Fn fn) {
  fn(n.ssv());
  if (!n.is_wide()) return;
  for (int j = 0; j < n.wide()->count(); ++j) fn(n.wide()->slot(j).meta.ssv);
}

/// Total count of live Node objects (for leak tests). An arena stat; see
/// `NodeArenaStats` for the full breakdown.
uint64_t LiveNodeCount();

/// Allocates a node from the slab pool, tracked by `LiveNodeCount`. All
/// node creation in the library goes through this helper.
NodePtr MakeNode(Key key, std::string_view payload);

/// Allocates an empty wide-layout node with `fanout` key slots (node slot
/// plus a size-classed extent for the slot/child arrays).
NodePtr MakeWideNode(int fanout);

}  // namespace hyder

#endif  // HYDER2_TREE_NODE_H_
