#include "server/resolver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "log/striped_log.h"
#include "meld/state_table.h"
#include "txn/codec.h"
#include "txn/intention_builder.h"

namespace hyder {
namespace {

/// A log populated with independent single-snapshot intentions plus the
/// per-node ground truth ((key, payload) by node index) for verifying what
/// the resolver returns, whether served from cache or refetched.
class PopulatedLog {
 public:
  static constexpr int kIntentions = 24;

  PopulatedLog() : log_(StripedLogOptions{/*block_size=*/512}) {}

  // Not the constructor: gtest's fatal assertions need a void function.
  void Populate() {
    expected_.resize(kIntentions + 1);
    nodes_.resize(kIntentions + 1);
    positions_.resize(kIntentions + 1);
    txn_ids_.resize(kIntentions + 1);
    IntentionAssembler assembler;
    for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
      const uint64_t txn_id = kWorkspaceTagBit | (1000 + seq);
      IntentionBuilder b(txn_id, 0, Ref::Null(),
                         IsolationLevel::kSerializable, nullptr);
      for (Key k = 0; k < 6; ++k) {
        ASSERT_TRUE(
            b.Put(k, "s" + std::to_string(seq) + "k" + std::to_string(k))
                .ok());
      }
      auto blocks = SerializeIntention(b, 1000 + seq, log_.block_size());
      ASSERT_TRUE(blocks.ok());
      for (const std::string& block : *blocks) {
        auto pos = log_.Append(block);
        ASSERT_TRUE(pos.ok());
        positions_[seq].push_back(*pos);
        auto fed = assembler.AddBlock(block);
        ASSERT_TRUE(fed.ok());
        if (!fed->completed.has_value()) continue;
        std::vector<NodePtr> nodes;
        auto intent = DeserializeIntention(
            fed->completed->payload, seq, fed->completed->block_count,
            nullptr, 1000 + seq, &nodes);
        ASSERT_TRUE(intent.ok());
        for (const NodePtr& n : nodes) {
          expected_[seq].emplace_back(n->key(), std::string(n->payload()));
        }
        nodes_[seq] = std::move(nodes);
      }
      txn_ids_[seq] = 1000 + seq;
      ASSERT_FALSE(expected_[seq].empty());
    }
  }

  void RecordDirectory(ServerResolver* resolver) const {
    for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
      resolver->RecordIntentionBlocks(seq, positions_[seq], txn_ids_[seq]);
    }
  }

  void VerifyNode(uint64_t seq, uint32_t idx, const NodePtr& n) const {
    ASSERT_EQ(n->key(), expected_[seq][idx].first)
        << "seq " << seq << " idx " << idx;
    ASSERT_EQ(n->payload(), expected_[seq][idx].second)
        << "seq " << seq << " idx " << idx;
  }

  StripedLog& log() { return log_; }
  size_t node_count(uint64_t seq) const { return expected_[seq].size(); }
  std::vector<NodePtr> nodes_copy(uint64_t seq) const { return nodes_[seq]; }

 private:
  StripedLog log_;
  std::vector<std::vector<std::pair<Key, std::string>>> expected_;
  std::vector<std::vector<NodePtr>> nodes_;
  std::vector<std::vector<uint64_t>> positions_;
  std::vector<uint64_t> txn_ids_;
};

/// Readers refetching across shards under a cache far smaller than the
/// working set, a writer re-caching decoded intentions, and an ephemeral
/// registrar + sweeper — all concurrent. Verifies no lost or corrupted
/// entries and that the eviction/refetch machinery actually engaged.
TEST(ResolverConcurrencyTest, ParallelResolveCacheEvictRefetch) {
  PopulatedLog data;
  ASSERT_NO_FATAL_FAILURE(data.Populate());
  ResolverOptions opts;
  opts.intention_cache_capacity = 4;  // Far below the 24-intention set.
  opts.shards = 3;
  ServerResolver resolver(&data.log(), opts);
  data.RecordDirectory(&resolver);

  constexpr int kReaders = 4;
  constexpr int kItersPerReader = 400;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(100 + r);
      for (int i = 0; i < kItersPerReader; ++i) {
        const uint64_t seq = 1 + rng.Uniform(PopulatedLog::kIntentions);
        const uint32_t idx =
            static_cast<uint32_t>(rng.Uniform(data.node_count(seq)));
        auto n = resolver.Resolve(VersionId::Logged(seq, idx));
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        data.VerifyNode(seq, idx, *n);
      }
    });
  }
  // Writer: re-caches decoded node arrays (the parallel-decode sink path);
  // duplicates must be ignored and the capacity bound maintained.
  threads.emplace_back([&] {
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const uint64_t seq = 1 + rng.Uniform(PopulatedLog::kIntentions);
      resolver.CacheIntention(seq, data.nodes_copy(seq));
    }
  });
  // Ephemeral registrar + sweeper, concurrent with the logged traffic.
  std::vector<NodePtr> kept;
  threads.emplace_back([&] {
    for (uint64_t i = 1; i <= 100; ++i) {
      NodePtr n = MakeNode(Key(i), "eph" + std::to_string(i));
      n->set_vn(VersionId::Ephemeral(7, i));
      resolver.RegisterEphemeral(n);
      if (i % 2 == 0) kept.push_back(n);  // Odd ones become sweepable.
      if (i % 25 == 0) resolver.SweepEphemerals();
    }
  });
  for (auto& t : threads) t.join();

  // Eviction pressure really produced log refetches, and the global cache
  // bound (summed across shards) held.
  EXPECT_GT(resolver.refetches(), 0u);
  EXPECT_LE(resolver.cached_intentions(), opts.intention_cache_capacity);

  // Every sequence is still resolvable afterwards (nothing was lost).
  for (uint64_t seq = 1; seq <= PopulatedLog::kIntentions; ++seq) {
    auto n = resolver.Resolve(VersionId::Logged(seq, 0));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    data.VerifyNode(seq, 0, *n);
  }
  // Kept ephemerals survive a final sweep; the dropped ones are gone.
  resolver.SweepEphemerals();
  for (const NodePtr& n : kept) {
    auto r = resolver.Resolve(n->vn());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r).get(), n.get());
  }
  EXPECT_TRUE(
      resolver.Resolve(VersionId::Ephemeral(7, 1)).status().IsSnapshotTooOld());

  // The directory snapshot is complete and sorted regardless of sharding.
  auto dir = resolver.ExportDirectory();
  ASSERT_EQ(dir.size(), size_t(PopulatedLog::kIntentions));
  for (size_t i = 0; i < dir.size(); ++i) {
    EXPECT_EQ(dir[i].seq, i + 1);
    EXPECT_FALSE(dir[i].positions.empty());
  }
}

/// The ephemeral table's register / resolve / publish / sweep race. A
/// "final meld" thread registers into table 0 and publishes each run of
/// ids, replacing the previous run; a "premeld" thread registers into
/// table 2 and keeps every other node, leaving the rest unpublished
/// garbage; readers resolve ids from both ranges while a sweeper sweeps
/// against the advancing retention window. A lookup must return the node
/// registered under that id or SnapshotTooOld, never anything else, and
/// afterwards exactly the reachable entries remain.
TEST(ResolverConcurrencyTest, EphemeralTableRegisterResolveSweepRace) {
  StripedLog log(StripedLogOptions{/*block_size=*/512});
  ServerResolver resolver(&log, ResolverOptions{});
  constexpr uint64_t kRun = 8;
  constexpr uint64_t kRuns = 250;
  constexpr uint64_t kRetained = 4;
  StateTable states(kRetained, DatabaseState{0, Ref::Null()});
  resolver.TrackRetention(&states);
  const auto make = [](uint32_t thread, uint64_t seq) {
    NodePtr n = MakeNode(Key(seq), "eph");
    n->set_vn(VersionId::Ephemeral(thread, seq));
    return n;
  };

  std::atomic<bool> done{false};
  std::vector<NodePtr> kept;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t run = 0; run < kRuns; ++run) {
      PublishDelta delta;
      delta.first_seq = run + 1;
      // Like a meld output, the run holds its nodes until they are
      // published.
      std::vector<NodePtr> out;
      for (uint64_t j = 0; j < kRun; ++j) {
        out.push_back(make(0, run * kRun + j));
        resolver.RegisterEphemeral(out.back());
        delta.born.push_back(out.back()->vn());
        if (run > 0) {
          delta.replaced.push_back(
              VersionId::Ephemeral(0, (run - 1) * kRun + j));
        }
      }
      resolver.NotePublished(delta);
      states.Publish(DatabaseState{run + 1, Ref::To(out.front())});
    }
  });
  threads.emplace_back([&] {
    for (uint64_t i = 0; i < kRun * kRuns; ++i) {
      NodePtr n = make(2, i);
      resolver.RegisterEphemeral(n);
      if (i % 2 == 0) kept.push_back(n);
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(31 + r);
      for (int i = 0; i < 4000; ++i) {
        const VersionId vn = VersionId::Ephemeral(
            rng.Bernoulli(0.5) ? 0 : 2, rng.Uniform(kRun * kRuns));
        auto n = resolver.Resolve(vn);
        if (n.ok()) {
          ASSERT_EQ((*n)->vn(), vn);
        } else {
          ASSERT_TRUE(n.status().IsSnapshotTooOld()) << n.status().ToString();
        }
      }
    });
  }
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_acquire)) resolver.SweepEphemerals();
  });
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  sweeper.join();

  resolver.SweepEphemerals();
  // Table 0: run r is replaced in state r + 2, so only the runs replaced
  // after the oldest retained state (kRuns + 1 - kRetained) remain — plus
  // the last run, never replaced. Table 2: exactly the kept half.
  const uint64_t oldest = states.OldestRetained();
  ASSERT_EQ(oldest, kRuns + 1 - kRetained);
  uint64_t published_left = 0;
  for (uint64_t run = 0; run < kRuns; ++run) {
    const bool live = run + 2 > oldest;
    for (uint64_t j = 0; j < kRun; ++j) {
      auto n = resolver.Resolve(VersionId::Ephemeral(0, run * kRun + j));
      EXPECT_EQ(n.ok(), live) << "run " << run;
    }
    published_left += live ? kRun : 0;
  }
  for (const NodePtr& n : kept) {
    auto r = resolver.Resolve(n->vn());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->get(), n.get());
  }
  EXPECT_EQ(resolver.ephemeral_count(), published_left + kept.size());
}

/// An imported directory on a cold resolver serves every reference through
/// the refetch path, shard layout notwithstanding.
TEST(ResolverConcurrencyTest, ImportedDirectoryServesRefetches) {
  PopulatedLog data;
  ASSERT_NO_FATAL_FAILURE(data.Populate());
  ResolverOptions opts;
  opts.intention_cache_capacity = 2;
  opts.shards = 8;  // Clamped to capacity: shards can't starve the bound.
  ServerResolver source(&data.log(), opts);
  data.RecordDirectory(&source);

  ServerResolver restored(&data.log(), opts);
  restored.ImportDirectory(source.ExportDirectory());
  for (uint64_t seq = 1; seq <= PopulatedLog::kIntentions; ++seq) {
    auto n = restored.Resolve(VersionId::Logged(seq, 1));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    data.VerifyNode(seq, 1, *n);
    EXPECT_LE(restored.cached_intentions(), opts.intention_cache_capacity);
  }
  EXPECT_EQ(restored.refetches(), uint64_t(PopulatedLog::kIntentions));
}

}  // namespace
}  // namespace hyder
