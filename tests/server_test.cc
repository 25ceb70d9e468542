#include "server/server.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "server/cluster.h"
#include "server/driver.h"
#include "tree/validate.h"
#include "workload/workload.h"

namespace hyder {
namespace {

StripedLogOptions TestLog() {
  StripedLogOptions o;
  o.block_size = 2048;
  o.storage_units = 3;
  return o;
}

ServerOptions Opts() {
  ServerOptions o;
  return o;
}

TEST(ServerTest, CommitAndReadBack) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "one").ok());
  ASSERT_TRUE(t1.Put(2, "two").ok());
  auto committed = server.Commit(std::move(t1));
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_TRUE(*committed);

  Transaction t2 = server.Begin();
  auto v = t2.Get(1);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "one");
}

TEST(ServerTest, ReadOnlyCommitsWithoutLogging) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "one").ok());
  ASSERT_TRUE(server.Commit(std::move(t1)).ok());
  const uint64_t tail = log.Tail();

  Transaction ro = server.Begin();
  auto v = ro.Get(1);
  ASSERT_TRUE(v.ok());
  auto sub = server.Submit(std::move(ro));
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->decided);
  EXPECT_TRUE(sub->committed);
  EXPECT_EQ(log.Tail(), tail) << "read-only transactions must not log (§1)";
}

TEST(ServerTest, ConflictingTransactionAborts) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(5, "base").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  // Two concurrent writers of the same key: both begin before either lands.
  Transaction a = server.Begin();
  Transaction b = server.Begin();
  ASSERT_TRUE(a.Put(5, "a").ok());
  ASSERT_TRUE(b.Put(5, "b").ok());
  auto ra = server.Commit(std::move(a));
  ASSERT_TRUE(ra.ok());
  EXPECT_TRUE(*ra);
  auto rb = server.Commit(std::move(b));
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(*rb);

  Transaction check = server.Begin();
  auto v = check.Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "a");
}

TEST(ServerTest, AdmissionControlRejectsWhenSaturated) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.max_inflight = 3;
  HyderServer server(&log, options);
  for (int i = 0; i < 3; ++i) {
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(i, "x").ok());
    ASSERT_TRUE(server.Submit(std::move(t)).ok());
  }
  Transaction overflow = server.Begin();
  ASSERT_TRUE(overflow.Put(99, "x").ok());
  auto r = server.Submit(std::move(overflow));
  EXPECT_TRUE(r.status().IsBusy());
  // Draining the pipeline restores admission.
  ASSERT_TRUE(server.Poll().ok());
  Transaction after = server.Begin();
  ASSERT_TRUE(after.Put(99, "x").ok());
  EXPECT_TRUE(server.Submit(std::move(after)).ok());
}

TEST(ServerTest, OutcomeTracksLocalTransactions) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(7, "x").ok());
  uint64_t id = t.txn_id();
  ASSERT_TRUE(server.Submit(std::move(t)).ok());
  EXPECT_FALSE(server.Outcome(id).has_value());
  ASSERT_TRUE(server.Poll().ok());
  auto outcome = server.Outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
}

TEST(ServerTest, SnapshotReadsAreStable) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(1, "v1").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  Transaction reader = server.Begin();
  // A writer commits in between.
  Transaction writer = server.Begin();
  ASSERT_TRUE(writer.Put(1, "v2").ok());
  ASSERT_TRUE(server.Commit(std::move(writer)).ok());
  // The reader still sees its immutable snapshot.
  auto v = reader.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "v1");
}

TEST(ClusterTest, TransactionsVisibleAcrossServers) {
  Cluster cluster(3, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{1, "one"}, {2, "two"}}).ok());

  Transaction t = cluster.server(1).Begin();
  ASSERT_TRUE(t.Put(3, "three").ok());
  ASSERT_TRUE(cluster.server(1).Commit(std::move(t)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());

  Transaction check = cluster.server(2).Begin();
  auto v = check.Get(3);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "three");
}

TEST(ClusterTest, ServersConvergeToPhysicallyIdenticalStates) {
  ServerOptions options = Opts();
  options.pipeline.premeld_threads = 2;
  options.pipeline.premeld_distance = 2;
  Cluster cluster(4, TestLog(), options);
  std::map<Key, std::string> seed;
  for (Key k = 0; k < 50; ++k) seed[k] = "s" + std::to_string(k);
  ASSERT_TRUE(cluster.Seed(seed).ok());

  // Interleaved writers on all servers, including conflicting ones.
  Rng rng(17);
  std::vector<Transaction> open;
  for (int round = 0; round < 30; ++round) {
    int s = int(rng.Uniform(4));
    Transaction t = cluster.server(s).Begin();
    ASSERT_TRUE(t.Put(rng.Uniform(60), "r" + std::to_string(round)).ok());
    if (rng.Bernoulli(0.5)) {
      auto v = t.Get(rng.Uniform(50));
      ASSERT_TRUE(v.ok());
    }
    ASSERT_TRUE(cluster.server(s).Submit(std::move(t)).ok());
    if (round % 5 == 4) {
      ASSERT_TRUE(cluster.PollAll().ok());
    }
  }
  std::string diff;
  auto converged = cluster.StatesConverged(&diff);
  ASSERT_TRUE(converged.ok()) << converged.status().ToString();
  EXPECT_TRUE(*converged) << diff;
}

TEST(ClusterTest, ConcurrentWritersOnDifferentServersConflictCorrectly) {
  Cluster cluster(2, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{10, "base"}}).ok());

  Transaction a = cluster.server(0).Begin();
  Transaction b = cluster.server(1).Begin();
  ASSERT_TRUE(a.Put(10, "from0").ok());
  ASSERT_TRUE(b.Put(10, "from1").ok());
  uint64_t ida = a.txn_id(), idb = b.txn_id();
  ASSERT_TRUE(cluster.server(0).Submit(std::move(a)).ok());
  ASSERT_TRUE(cluster.server(1).Submit(std::move(b)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());
  auto oa = cluster.server(0).Outcome(ida);
  auto ob = cluster.server(1).Outcome(idb);
  ASSERT_TRUE(oa.has_value());
  ASSERT_TRUE(ob.has_value());
  EXPECT_TRUE(*oa) << "first appender wins";
  EXPECT_FALSE(*ob) << "second writer of the same key must abort";
  std::string diff;
  EXPECT_TRUE(*cluster.StatesConverged(&diff)) << diff;
}

TEST(ResolverTest, CacheEvictionForcesLogRefetch) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.resolver.intention_cache_capacity = 2;  // Aggressive eviction.
  HyderServer server(&log, options);

  // Many transactions, each touching fresh keys so old intentions stop
  // being cached but remain reachable through lazy references.
  for (Key k = 0; k < 30; ++k) {
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(k, "val" + std::to_string(k)).ok());
    auto r = server.Commit(std::move(t));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r);
  }
  EXPECT_LE(server.resolver().cached_intentions(), 2u);
  // Reading an old key must transparently refetch from the log (§5.2).
  Transaction reader = server.Begin();
  auto v = reader.Get(0);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "val0");
  EXPECT_GT(server.resolver().refetches(), 0u);
}

TEST(ResolverTest, EphemeralSweepKeepsLiveNodes) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.sweep_interval = 1;  // Sweep after every meld.
  HyderServer server(&log, options);
  // Interleaved conflicting-snapshot writers create ephemeral nodes.
  Transaction seed = server.Begin();
  for (Key k = 0; k < 20; ++k) ASSERT_TRUE(seed.Put(k, "s").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  for (int round = 0; round < 10; ++round) {
    Transaction a = server.Begin();
    Transaction b = server.Begin();
    ASSERT_TRUE(a.Put(round, "a").ok());
    ASSERT_TRUE(b.Put(19 - round, "b").ok());
    ASSERT_TRUE(server.Submit(std::move(a)).ok());
    ASSERT_TRUE(server.Submit(std::move(b)).ok());
    ASSERT_TRUE(server.Poll().ok());
  }
  // All data remains readable after aggressive sweeping.
  Transaction check = server.Begin();
  for (Key k = 0; k < 20; ++k) {
    auto v = check.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    EXPECT_TRUE(v->has_value());
  }
}

// Regression for the wire-v3 sweep crash. A v3 intention node carries
// every external edge lazily, and a lazy edge holds no reference: once the
// states that held an ephemeral by strong reference retire, a committed
// intention's lazy edge (refetched after cache eviction, so never
// memoized) can be the only thing naming it. A sweep that judged liveness
// by reference count dropped such nodes, and the next meld through the
// edge failed Poll with SnapshotTooOld.
TEST(ResolverTest, LazyEdgeTargetsSurviveSweepsUnderWireV3) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.wire_format = WireFormat::kV3;
  options.pipeline.premeld_threads = 2;
  options.pipeline.premeld_distance = 10;
  options.pipeline.group_meld = true;
  options.pipeline.state_retention = 128;
  options.resolver.intention_cache_capacity = 32;
  options.sweep_interval = 4;
  HyderServer server(&log, options);
  WorkloadOptions wopts;
  wopts.db_size = 5000;
  wopts.ops_per_txn = 4;
  wopts.seed = 11;
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());
  // Closed loop with 200 in flight (deep conflict zones, so melds build
  // ephemeral paths), one meld per step. A read that hits a retired
  // ephemeral on the latest snapshot is a stale read: counted, and the
  // transaction is dropped, so the loop goes on to show where Poll fails.
  uint64_t committed = 0;
  uint64_t stale_reads = 0;
  for (int meld = 0; meld < 3000; ++meld) {
    while (server.inflight() < 200) {
      Transaction t = server.Begin();
      Status filled = gen.FillWriteTransaction(t);
      if (filled.IsSnapshotTooOld()) {
        stale_reads++;
        continue;
      }
      ASSERT_TRUE(filled.ok()) << filled.ToString();
      ASSERT_TRUE(server.Submit(std::move(t)).ok());
    }
    auto decisions = server.Poll(1);
    ASSERT_TRUE(decisions.ok()) << "Poll after " << meld << " melds: "
                                << decisions.status().ToString();
    for (const MeldDecision& d : *decisions) committed += d.committed;
  }
  EXPECT_EQ(stale_reads, 0u);
  EXPECT_GT(committed, 1000u);
  EXPECT_GT(server.resolver().ephemerals_swept(), 0u);
  // Every key is still readable from the latest state.
  Transaction check = server.Begin();
  for (Key k = 0; k < wopts.db_size; k += 7) {
    auto v = check.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    EXPECT_TRUE(v->has_value());
  }
}

NodePtr EphemeralNode(uint32_t thread, uint64_t seq) {
  NodePtr n = MakeNode(Key(seq), "e");
  n->set_vn(VersionId::Ephemeral(thread, seq));
  return n;
}

// State 1 holds ephemeral P with a materialized child N; state 2 replaces
// P by a logged node L whose edge to N is lazy (as a v3 decode leaves it).
// Once state 1 retires, nothing holds N by reference but the table, yet
// the retained state 2 still reaches it.
TEST(EphemeralTableTest, LazyEdgeTargetSurvivesReplacedNodeIsDropped) {
  StripedLog log(TestLog());
  ServerResolver resolver(&log, ResolverOptions{});
  StateTable states(/*capacity=*/2, DatabaseState{0, Ref::Null()});
  resolver.TrackRetention(&states);
  const VersionId p_vn = VersionId::Ephemeral(0, 1);
  const VersionId n_vn = VersionId::Ephemeral(0, 2);
  {
    NodePtr n = EphemeralNode(0, 2);
    NodePtr p = EphemeralNode(0, 1);
    p->left().Reset(Ref::To(n));
    resolver.RegisterEphemeral(n);
    resolver.RegisterEphemeral(p);
    PublishDelta born;
    born.first_seq = 1;
    born.born = {p_vn, n_vn};
    resolver.NotePublished(born);
    states.Publish(DatabaseState{1, Ref::To(p)});
  }
  NodePtr l = MakeNode(Key(1), "logged");
  l->set_vn(VersionId::Logged(2, 0));
  l->left().Reset(Ref::Lazy(n_vn));
  PublishDelta replace;
  replace.first_seq = 2;
  replace.replaced = {p_vn};
  resolver.NotePublished(replace);
  states.Publish(DatabaseState{2, Ref::To(l)});

  // State 1 is still retained: nothing goes.
  EXPECT_EQ(resolver.SweepEphemerals(), 0u);
  // State 3 retires state 1 (capacity 2): P goes, N stays although only
  // the table holds it now.
  states.Publish(DatabaseState{3, Ref::To(l)});
  EXPECT_EQ(states.OldestRetained(), 2u);
  EXPECT_EQ(resolver.SweepEphemerals(), 1u);
  EXPECT_TRUE(resolver.Resolve(p_vn).status().IsSnapshotTooOld());
  auto n = resolver.Resolve(n_vn);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ((*n)->RefCount(), 2u);  // The table's and ours.
  auto via_edge = l->left().Get(&resolver);
  ASSERT_TRUE(via_edge.ok());
  EXPECT_EQ(via_edge->get(), n->get());
  EXPECT_EQ(resolver.ephemeral_count(), 1u);
  EXPECT_EQ(resolver.ephemerals_swept(), 1u);
}

// Unpublished ephemerals (premeld/group leftovers, aborted final melds) go
// as soon as the table holds the last reference, window or not.
TEST(EphemeralTableTest, UnpublishedNodesGoByReferenceCount) {
  StripedLog log(TestLog());
  ServerResolver resolver(&log, ResolverOptions{});
  NodePtr kept = EphemeralNode(2, 10);
  resolver.RegisterEphemeral(kept);
  resolver.RegisterEphemeral(EphemeralNode(2, 11));
  EXPECT_EQ(resolver.SweepEphemerals(), 1u);
  EXPECT_TRUE(resolver.Resolve(kept->vn()).ok());
  EXPECT_TRUE(resolver.Resolve(VersionId::Ephemeral(2, 11))
                  .status()
                  .IsSnapshotTooOld());
}

// Checkpoint bootstrap registers whatever ids the checkpointed state holds:
// sparse sequences, far-apart chunks, any thread id.
TEST(EphemeralTableTest, SparseBootstrapIdsResolve) {
  StripedLog log(TestLog());
  ServerResolver resolver(&log, ResolverOptions{});
  StateTable states(/*capacity=*/4, DatabaseState{7, Ref::Null()});
  resolver.TrackRetention(&states);
  const std::vector<std::pair<uint32_t, uint64_t>> ids = {
      {0, 5},       {0, 1u << 30}, {0, 3},         {3, 7},
      {200, 12345}, {0, 2048},     {32767, 1ull << 40}};
  std::vector<Node*> raw;
  for (const auto& [thread, seq] : ids) {
    NodePtr n = EphemeralNode(thread, seq);
    raw.push_back(n.get());
    resolver.RegisterPublishedEphemeral(n);
  }
  // Published and never replaced: the only reference is the table's, and
  // a sweep keeps every one.
  EXPECT_EQ(resolver.SweepEphemerals(), 0u);
  EXPECT_EQ(resolver.ephemeral_count(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto r = resolver.Resolve(VersionId::Ephemeral(ids[i].first,
                                                   ids[i].second));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->get(), raw[i]);
  }
  EXPECT_TRUE(resolver.Resolve(VersionId::Ephemeral(0, 4))
                  .status()
                  .IsSnapshotTooOld());
  EXPECT_TRUE(resolver.Resolve(VersionId::Ephemeral(9, 5))
                  .status()
                  .IsSnapshotTooOld());
  // Replaced in state 8, which is not yet the oldest retained: it stays
  // until state 7 retires.
  PublishDelta replace;
  replace.first_seq = 8;
  replace.replaced = {VersionId::Ephemeral(0, 1u << 30)};
  resolver.NotePublished(replace);
  states.Publish(DatabaseState{8, Ref::Null()});
  EXPECT_EQ(resolver.SweepEphemerals(), 0u);
  ASSERT_TRUE(states.RetireBelow(8) == 1u);
  EXPECT_EQ(resolver.SweepEphemerals(), 1u);
  EXPECT_EQ(resolver.ephemeral_count(), ids.size() - 1);
}

TEST(DriverTest, MaintainsConflictZone) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions wopts;
  wopts.db_size = 500;
  wopts.ops_per_txn = 4;
  wopts.seed = 3;
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());

  const uint64_t zone = 40;
  ClosedLoopDriver driver(
      &server, zone, IsolationLevel::kSerializable,
      [&](Transaction& t) { return gen.FillWriteTransaction(t); });
  ASSERT_TRUE(driver.Run(200).ok());
  const DriverReport& report = driver.report();
  EXPECT_GT(report.committed, 100u);
  const PipelineStats& stats = server.stats();
  // Conflict zone in blocks / final melds should be near the target zone
  // times blocks-per-intention.
  const double zone_intentions =
      double(stats.conflict_zone_sum) / double(stats.final_melds);
  EXPECT_GT(zone_intentions, double(zone) * 0.5);
}

TEST(WorkloadTest, KeysStayInRange) {
  for (auto dist : {AccessDistribution::kUniform, AccessDistribution::kHotspot,
                    AccessDistribution::kZipf}) {
    WorkloadOptions o;
    o.db_size = 1000;
    o.distribution = dist;
    o.hotspot_fraction = 0.1;
    WorkloadGenerator gen(o);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(gen.NextKey(), 1000u);
  }
}

TEST(WorkloadTest, HotspotSkewsAccesses) {
  WorkloadOptions o;
  o.db_size = 10'000;
  o.distribution = AccessDistribution::kHotspot;
  o.hotspot_fraction = 0.05;
  WorkloadGenerator gen(o);
  uint64_t hot = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) hot += gen.NextKey() < 500;
  EXPECT_NEAR(double(hot) / n, 0.95, 0.02);
}

TEST(WorkloadTest, PayloadSizeRespected) {
  WorkloadOptions o;
  o.payload_bytes = 64;
  WorkloadGenerator gen(o);
  for (int i = 0; i < 10; ++i) EXPECT_GE(gen.NextValue().size(), 64u);
}

TEST(WorkloadTest, WriteTransactionHasWrites) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions o;
  o.db_size = 100;
  o.ops_per_txn = 10;
  o.update_fraction = 0.2;
  WorkloadGenerator gen(o);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());
  Transaction t = server.Begin();
  ASSERT_TRUE(gen.FillWriteTransaction(t).ok());
  EXPECT_TRUE(t.has_writes());
  Transaction ro = server.Begin();
  ASSERT_TRUE(gen.FillReadOnlyTransaction(ro).ok());
  EXPECT_FALSE(ro.has_writes());
}

TEST(WorkloadTest, SeedPopulatesDatabase) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions o;
  o.db_size = 2'000;
  WorkloadGenerator gen(o);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());
  auto check = ValidateTree(&server.resolver(), server.LatestState().root);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->node_count, 2'000u);
  EXPECT_TRUE(check->bst_ok);
}

TEST(ServerTest, DeleteAcrossServers) {
  Cluster cluster(2, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{1, "a"}, {2, "b"}, {3, "c"}}).ok());
  Transaction t = cluster.server(0).Begin();
  auto removed = t.Delete(2);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  ASSERT_TRUE(cluster.server(0).Commit(std::move(t)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());
  Transaction check = cluster.server(1).Begin();
  auto v = check.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->has_value());
  std::string diff;
  EXPECT_TRUE(*cluster.StatesConverged(&diff)) << diff;
}

TEST(ServerTest, GroupMeldCommitAwaitsPairPartner) {
  // With group meld on, a lone transaction's decision waits for its pair
  // partner; the synchronous Commit surfaces that as TimedOut and the next
  // transaction resolves both.
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.pipeline.group_meld = true;
  HyderServer server(&log, options);
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "a").ok());
  uint64_t id1 = t1.txn_id();
  auto r1 = server.Commit(std::move(t1));
  EXPECT_TRUE(r1.status().IsTimedOut()) << "odd member must await a pair";
  Transaction t2 = server.Begin();
  ASSERT_TRUE(t2.Put(2, "b").ok());
  auto r2 = server.Commit(std::move(t2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
  auto o1 = server.Outcome(id1);
  ASSERT_TRUE(o1.has_value());
  EXPECT_TRUE(*o1);
}

TEST(ServerTest, HistoricalSnapshotWritesCarryLongConflictZones) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(5, "v0").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  const uint64_t old_seq = server.LatestState().seq;
  // Move the key forward.
  Transaction w = server.Begin();
  ASSERT_TRUE(w.Put(5, "v1").ok());
  ASSERT_TRUE(server.Commit(std::move(w)).ok());
  // A write transaction against the historical snapshot conflicts.
  auto historical = server.BeginAt(old_seq, IsolationLevel::kSerializable);
  ASSERT_TRUE(historical.ok());
  ASSERT_TRUE(historical->Put(5, "stale").ok());
  auto r = server.Commit(std::move(*historical));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // But a historical write to an untouched key commits.
  auto historical2 = server.BeginAt(old_seq, IsolationLevel::kSerializable);
  ASSERT_TRUE(historical2.ok());
  ASSERT_TRUE(historical2->Put(99, "fresh").ok());
  auto r2 = server.Commit(std::move(*historical2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
}

TEST(ServerTest, ScanSeesCommittedData) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  for (Key k = 10; k <= 50; k += 10) {
    ASSERT_TRUE(seed.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  Transaction t = server.Begin();
  auto items = t.Scan(15, 45);
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->size(), 3u);
  EXPECT_EQ((*items)[0].first, 20u);
  EXPECT_EQ((*items)[2].first, 40u);
}

}  // namespace
}  // namespace hyder
