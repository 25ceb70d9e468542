// Repository benchmark: two workloads run against real HyderServers in the
// default configuration (wire v3, binary tree, default resolver cache and
// ephemeral-sweep interval, premeld t=2 d=10, group meld on).
//
//   deep_uniform  closed loop, 1,500 transactions in flight, paper-default
//                 transactions (8 reads + 2 writes) over 400K uniform keys:
//                 deep conflict zones, premeld on nearly every intention,
//                 a live tree larger than the resolver cache.
//   skew_open     open loop, Poisson arrivals at a fixed rate well below
//                 capacity, zipf 0.99 over 100K keys, half read-only, some
//                 short scans: shallow zones, premeld skipped, hot set
//                 cached; decision latency is what users wait for. The
//                 loop melds the backlog before each arrival begins, so
//                 every decision depends on the seed only.
//
// Both run the same phases in each session (deep_uniform runs one session,
// skew_open three, whose samples are pooled):
//   set-up    seed, warm up, drain, checkpoint (repeated; median reported)
//   window    the live server under load for a fixed amount of work
//             (deep_uniform also runs it on its dropped set-up instances;
//             rates and latencies pool every window)
//   replay    the whole log replayed through SequentialPipeline, then
//             through ThreadedPipeline (feeder, 2 premeld workers, 1 meld
//             thread); the intentions after the checkpoint are timed
//   catch-up  a second server rejoins from the set-up checkpoint to the
//             tail; threaded replays and catch-ups alternate (the best
//             replay and the median catch-up are reported)
//   rest      the live server keeps the same load until the planned number
//             of transactions has been issued (counts only in fail_frac)
//
// A server error (Poll, Submit, a read that is not SnapshotTooOld, or the
// catch-up) is a crash: it ends the run, is printed, and every transaction
// left undecided or never issued counts as failed. Output checks: the live
// server and both replays agree on every decision they share, the caught-up
// server agrees with the replays on its commit/abort totals, and its state
// is PhysicallyEqual to the live server's at the same sequence. A mismatch
// exits non-zero; a counted crash is not a mismatch.
//
// Usage: hyder_perfbench --workload deep_uniform|skew_open --seed N
//                        --seconds S --trace 0|1 [--span-out PATH]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/abort_info.h"
#include "common/stopwatch.h"
#include "layer_trace.h"
#include "log/striped_log.h"
#include "meld/threaded_pipeline.h"
#include "server/catchup.h"
#include "server/checkpoint.h"
#include "server/cluster.h"
#include "server/server.h"
#include "tree/node_pool.h"
#include "txn/codec.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using hyder::AbortCause;
using hyder::HyderServer;
using hyder::MeldDecision;
using hyder::PipelineStats;
using hyder::Result;
using hyder::Status;
using hyder::Stopwatch;
using hyder::Transaction;

// ---------------------------------------------------------------------------
// Small helpers.

double NowSeconds() { return double(Stopwatch::NowNanos()) / 1e9; }

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, like numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU ticks from /proc/stat: {steal, total}. Steal is time the
/// hypervisor ran something else on this VM's CPUs; it explains run-to-run
/// swings that no change to the program caused.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string Kernel() {
  utsname u;
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// Decisions by intention sequence: -1 undecided, 0 abort, 1 commit.
using Decisions = std::vector<int8_t>;

void Record(Decisions* decided, uint64_t seq, bool committed) {
  if (decided->size() <= seq) decided->resize(seq + 1, -1);
  (*decided)[seq] = committed ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Workload definitions.

constexpr int kPremeldThreads = 2;
constexpr int kPremeldDistance = 10;
constexpr int kSetupRepeats = 3;

struct WorkloadSpec {
  std::string name;
  hyder::WorkloadOptions gen;
  hyder::ServerOptions server;
  bool open_loop = false;
  /// Closed loop: transactions kept in flight.
  uint64_t inflight = 0;
  /// Open loop: Poisson arrival rate.
  double rate_tps = 0;
  /// Set-up warm-up, in melds (closed loop at `warmup_inflight`).
  uint64_t warmup_melds = 0;
  uint64_t warmup_inflight = 0;
  /// Timed live window: melds (closed loop) or arrivals (open loop).
  uint64_t window = 0;
  /// Also run the window on the earlier set-up instances, which are
  /// identical: the window's rate and latency are medians over them.
  bool window_per_setup = false;
  /// Transactions planned for the whole run (window + rest).
  uint64_t planned = 0;
  /// Independent sessions (fresh log and server each, workload seeds
  /// derived from --seed); their samples are pooled.
  int sessions = 1;
  /// Repetitions of the threaded replay and of the catch-up per session;
  /// the best replay rate and the median catch-up rate are reported.
  int replays = 0;
  int catchups = 0;
};

WorkloadSpec MakeSpec(const std::string& name, uint64_t seed, int seconds) {
  WorkloadSpec w;
  w.name = name;
  w.gen.seed = seed;
  w.server.pipeline.premeld_threads = kPremeldThreads;
  w.server.pipeline.premeld_distance = kPremeldDistance;
  w.server.pipeline.group_meld = true;
  if (name == "deep_uniform") {
    w.gen.db_size = 400'000;
    w.gen.payload_bytes = 16;
    w.gen.ops_per_txn = 10;
    w.gen.update_fraction = 0.2;
    w.gen.distribution = hyder::AccessDistribution::kUniform;
    w.inflight = 1500;
    // In-flight limit and state retention sized to the window.
    w.server.max_inflight = w.inflight + 16;
    w.server.pipeline.state_retention =
        w.inflight + kPremeldThreads * kPremeldDistance + 256;
    w.warmup_melds = 1500;
    w.warmup_inflight = w.inflight;
    w.window = 3000;
    w.window_per_setup = true;
    w.planned = 5000 * uint64_t(seconds);
    w.replays = 5;
    w.catchups = 3;
  } else if (name == "skew_open") {
    w.gen.db_size = 100'000;
    w.gen.payload_bytes = 16;
    w.gen.ops_per_txn = 10;
    w.gen.update_fraction = 0.2;
    w.gen.read_only_fraction = 0.5;
    w.gen.scan_fraction = 0.1;
    w.gen.scan_length = 10;
    w.gen.distribution = hyder::AccessDistribution::kZipf;
    w.gen.zipf_theta = 0.99;
    w.open_loop = true;
    w.rate_tps = 1000;
    w.warmup_melds = 500;
    w.warmup_inflight = 4;
    w.window = uint64_t(w.rate_tps * seconds);
    w.planned = w.window;
    // One session's log must fit the resolver cache (the hot set stays
    // cached), so more samples come from more sessions.
    w.sessions = 3;
    w.replays = 6;
    w.catchups = 4;
  } else {
    Die("unknown workload '" + name + "' (want deep_uniform or skew_open)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Load driving with crash accounting.

struct Tally {
  uint64_t issued = 0;
  uint64_t committed = 0;  ///< Includes read-only commits.
  uint64_t read_only = 0;
  uint64_t aborted = 0;    ///< Meld aborts.
  uint64_t busy = 0;       ///< Admission rejections.
  uint64_t stale = 0;      ///< Reads answered SnapshotTooOld.
};

/// Drives one server from the benchmark's own loop: Begin, fill, Submit and
/// Poll, with every decision booked into a per-sequence ledger and every
/// own transaction's decision latency sampled from its intended start.
class LoadDriver {
 public:
  LoadDriver(HyderServer* server, hyder::WorkloadGenerator* gen,
             SpanRecorder* rec)
      : server_(server), gen_(gen), rec_(rec),
        meld_base_(server->stats().intentions) {}

  bool crashed() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  uint64_t crash_meld() const { return crash_meld_; }
  uint64_t melds() const { return server_->stats().intentions - meld_base_; }
  const Tally& tally() const { return tally_; }
  const std::vector<double>& latency_us() const { return latency_us_; }
  /// Every decision this server produced.
  const Decisions& ledger() const { return ledger_; }

  /// Issues one transaction whose intended start was `start_ns`.
  void Issue(uint64_t start_ns) {
    if (crashed()) return;
    tally_.issued++;
    const bool read_only = gen_->NextIsReadOnly();
    std::optional<Transaction> txn;
    Status filled;
    {
      ScopedSpan span(rec_, Layer::kServerExec);
      txn.emplace(server_->Begin());
      if (rec_ != nullptr) rec_->SetTxn(span.handle(), txn->txn_id());
      filled = read_only ? gen_->FillReadOnlyTransaction(*txn)
                         : gen_->FillWriteTransaction(*txn);
    }
    if (!filled.ok()) {
      if (filled.IsSnapshotTooOld()) {
        tally_.stale++;
        Sample(start_ns);
        return;
      }
      Crash(filled);
      return;
    }
    const uint64_t id = txn->txn_id();
    Result<HyderServer::Submitted> sub = [&] {
      ScopedSpan span(rec_, Layer::kServerSubmit, id);
      return server_->Submit(std::move(*txn));
    }();
    if (!sub.ok()) {
      if (sub.status().IsBusy()) {
        tally_.busy++;
        Sample(start_ns);
        return;
      }
      Crash(sub.status());
      return;
    }
    if (sub->decided) {
      // Read-only: committed locally at Submit.
      tally_.read_only++;
      tally_.committed++;
      Sample(start_ns);
      return;
    }
    pending_[id] = start_ns;
  }

  /// Melds at most one intention.
  void PollOne() {
    if (crashed()) return;
    Result<std::vector<MeldDecision>> r = [&] {
      ScopedSpan span(rec_, Layer::kServerPoll);
      return server_->Poll(1);
    }();
    if (!r.ok()) {
      Crash(r.status());
      return;
    }
    for (const MeldDecision& d : *r) {
      Record(&ledger_, d.seq, d.committed);
      auto it = pending_.find(d.txn_id);
      if (it == pending_.end()) continue;  // Filler.
      Sample(it->second);
      pending_.erase(it);
      if (d.committed) {
        tally_.committed++;
      } else {
        tally_.aborted++;
      }
    }
  }

  bool LogUnread() const {
    return server_->next_read_position() < server_->log()->Tail();
  }

  /// Closed loop: keeps `inflight` transactions appended but undecided and
  /// melds one intention per step, until `melds()` reaches `until` or the
  /// plan is exhausted and drained.
  void RunClosed(uint64_t inflight, uint64_t until, uint64_t planned) {
    while (!crashed() && melds() < until) {
      while (!crashed() && server_->inflight() < inflight &&
             tally_.issued < planned) {
        Issue(Stopwatch::NowNanos());
      }
      if (!LogUnread()) break;
      PollOne();
    }
  }

  /// Open loop over arrivals [begin, end) of a schedule of intended starts
  /// (ns offsets from `t0_ns`). Idle time polls the server, and the backlog
  /// is melded before each arrival begins: every transaction's snapshot,
  /// and so every decision, depends on the seed only, not on timing. A
  /// late arrival still counts its wait from its intended start.
  void RunOpen(const std::vector<uint64_t>& schedule, size_t begin,
               size_t end, uint64_t t0_ns, std::vector<double>* late_us) {
    for (size_t i = begin; i < end && !crashed(); ++i) {
      const uint64_t intended = t0_ns + schedule[i];
      if (Stopwatch::NowNanos() < intended) {
        ScopedSpan span(rec_, Layer::kDriverWait);
        while (Stopwatch::NowNanos() < intended && !crashed()) {
          if (LogUnread()) PollOne();
        }
      }
      while (LogUnread() && !crashed()) PollOne();
      const uint64_t now = Stopwatch::NowNanos();
      late_us->push_back(now > intended ? double(now - intended) / 1e3 : 0);
      Issue(intended);
    }
  }

  /// Melds until every own transaction is decided, pairing a trailing
  /// group-meld member with a filler write when the log runs dry. Also
  /// leaves the server quiescent (checkpointable).
  void Drain() {
    while (!crashed()) {
      if (LogUnread()) {
        PollOne();
      } else if (server_->pipeline().has_pending_group()) {
        IssueFiller();
      } else {
        break;
      }
    }
  }

  /// Books the end of the planned run: transactions still undecided or
  /// never issued are lost. Returns the failed count.
  uint64_t Finish(uint64_t planned) {
    lost_ = pending_.size() + (planned > tally_.issued
                                   ? planned - tally_.issued
                                   : 0);
    return tally_.aborted + tally_.busy + tally_.stale + lost_;
  }
  uint64_t lost() const { return lost_; }

 private:
  void Sample(uint64_t start_ns) {
    const uint64_t now = Stopwatch::NowNanos();
    latency_us_.push_back(now > start_ns ? double(now - start_ns) / 1e3 : 0);
  }

  void IssueFiller() {
    Transaction txn = server_->Begin();
    Status st = txn.Put(gen_->NextKey(), gen_->NextValue());
    if (!st.ok()) {
      Crash(st);
      return;
    }
    Result<HyderServer::Submitted> sub = server_->Submit(std::move(txn));
    if (!sub.ok()) Crash(sub.status());
  }

  void Crash(const Status& st) {
    error_ = st;
    crash_meld_ = melds();
    std::printf("server crash after %llu melds: %s\n",
                (unsigned long long)crash_meld_, st.ToString().c_str());
  }

  HyderServer* const server_;
  hyder::WorkloadGenerator* const gen_;
  SpanRecorder* const rec_;
  const uint64_t meld_base_;
  Tally tally_;
  Status error_;
  uint64_t crash_meld_ = 0;
  uint64_t lost_ = 0;
  std::unordered_map<uint64_t, uint64_t> pending_;  ///< txn id -> start ns
  Decisions ledger_;
  std::vector<double> latency_us_;
};

// ---------------------------------------------------------------------------
// Set-up: seed, warm up, drain, checkpoint.

struct Live {
  std::unique_ptr<hyder::StripedLog> store;
  std::unique_ptr<TimedLog> timed;  ///< Traced runs only.
  hyder::SharedLog* log = nullptr;
  std::unique_ptr<hyder::WorkloadGenerator> gen;
  std::unique_ptr<HyderServer> server;
  hyder::CheckpointInfo checkpoint;
  double setup_s = 0;
  double checkpoint_s = 0;
};

std::unique_ptr<Live> SetUp(const WorkloadSpec& w, SpanRecorder* rec) {
  auto live = std::make_unique<Live>();
  const double t0 = NowSeconds();
  live->store =
      std::make_unique<hyder::StripedLog>(hyder::StripedLogOptions{});
  live->log = live->store.get();
  if (rec != nullptr) {
    live->timed = std::make_unique<TimedLog>(live->store.get(), rec);
    live->log = live->timed.get();
  }
  live->gen = std::make_unique<hyder::WorkloadGenerator>(w.gen);
  live->server = std::make_unique<HyderServer>(live->log, w.server);
  {
    ScopedSpan span(rec, Layer::kWorkloadSeed);
    CheckOk(live->gen->SeedDatabase(*live->server), "seed");
  }
  {
    LoadDriver warm(live->server.get(), live->gen.get(), rec);
    warm.RunClosed(w.warmup_inflight, w.warmup_melds, UINT64_MAX);
    warm.Drain();
    CheckOk(warm.error(), "warm-up");
  }
  const double c0 = NowSeconds();
  Result<hyder::CheckpointInfo> ckpt = [&] {
    ScopedSpan span(rec, Layer::kCheckpointWrite);
    return hyder::WriteCheckpoint(*live->server);
  }();
  CheckOk(ckpt.status(), "checkpoint");
  live->checkpoint = *ckpt;
  live->checkpoint_s = NowSeconds() - c0;
  live->setup_s = NowSeconds() - t0;
  return live;
}

// ---------------------------------------------------------------------------
// Catch-up: a second server rejoins from the set-up checkpoint.

struct CatchUp {
  Status error;
  double fetch_s = 0;
  double total_s = 0;
  uint64_t intentions = 0;
  double drift = 0;  ///< Second-half replay rate over first-half rate.
  std::unique_ptr<HyderServer> server;
};

/// Rate of the second half of `n` events over that of the first half,
/// given the start, midpoint and end times.
double HalfRateRatio(uint64_t n, double t0, double t_mid, double t1) {
  const uint64_t half = n / 2;
  return Ratio(Ratio(double(n - half), t1 - t_mid),
               Ratio(double(half), t_mid - t0));
}

/// `expected` is the number of intentions between the checkpoint and the
/// tail (for the drift midpoint).
CatchUp RunCatchUp(Live& live, const WorkloadSpec& w, uint64_t expected,
                   SpanRecorder* rec) {
  CatchUp out;
  hyder::CatchUpOptions options;
  options.server = w.server;
  options.server.server_id = 1;
  options.max_fetch_rounds = 4;
  hyder::CatchUpSession session(live.log, options);
  const double t0 = NowSeconds();
  while (session.phase() ==
         hyder::CatchUpSession::Phase::kFetchingCheckpoint) {
    ScopedSpan span(rec, Layer::kCatchupFetch);
    out.error = session.Step();
    if (!out.error.ok()) return out;
  }
  out.fetch_s = NowSeconds() - t0;
  double t_mid = 0;
  while (!session.done()) {
    ScopedSpan span(rec, Layer::kCatchupReplay);
    out.error = session.Step();
    if (!out.error.ok()) {
      out.intentions = session.server()->stats().intentions;
      return out;
    }
    if (t_mid == 0 && session.server()->stats().intentions >= expected / 2) {
      t_mid = NowSeconds();
    }
  }
  out.total_s = NowSeconds() - t0;
  out.server = session.TakeServer();
  out.intentions = out.server->stats().intentions;
  out.drift = HalfRateRatio(out.intentions, t0 + out.fetch_s, t_mid,
                            t0 + out.total_s);
  return out;
}

// ---------------------------------------------------------------------------
// Replays of the log through both meld engines.

struct LogIntention {
  uint64_t seq = 0;
  uint64_t txn_id = 0;
  uint32_t block_count = 1;
  std::string payload;
  std::vector<uint64_t> positions;
};

std::vector<LogIntention> ReadBack(hyder::SharedLog* log) {
  std::vector<LogIntention> out;
  hyder::IntentionAssembler assembler;
  std::unordered_map<uint64_t, std::vector<uint64_t>> partial;
  const uint64_t tail = log->Tail();
  for (uint64_t pos = 1; pos < tail; ++pos) {
    Result<std::string> block = log->Read(pos);
    CheckOk(block.status(), "read-back");
    Result<hyder::BlockHeader> header = hyder::DecodeBlockHeader(*block);
    if (!header.ok()) continue;  // Torn block: every server skips it.
    if (header->txn_id & hyder::kCheckpointTxnBit) continue;
    Result<hyder::IntentionAssembler::FeedOutcome> fed =
        assembler.AddBlock(*block);
    CheckOk(fed.status(), "read-back assembly");
    if (fed->duplicate) continue;
    partial[header->txn_id].push_back(pos);
    if (!fed->completed.has_value()) continue;
    LogIntention li;
    li.seq = fed->completed->seq;
    li.txn_id = fed->completed->txn_id;
    li.block_count = fed->completed->block_count;
    li.payload = std::move(fed->completed->payload);
    li.positions = std::move(partial[header->txn_id]);
    partial.erase(header->txn_id);
    out.push_back(std::move(li));
  }
  return out;
}

struct Replay {
  double timed_s = 0;
  uint64_t timed_intentions = 0;
  Decisions decided;
  PipelineStats stats;  ///< Threaded only: ring counters, timed part.
  std::vector<double> decode_us;
  double drift = 0;  ///< Second-half rate over first-half rate (threaded).
};

/// ThreadedPipeline replay: the feeder (this thread) hands raw payloads to
/// two premeld workers; one meld thread decides. Intentions up to
/// `timed_after` are fed first and drained untimed.
Replay RunThreadedReplay(hyder::SharedLog* log,
                         const std::vector<LogIntention>& stream,
                         const hyder::PipelineConfig& config,
                         uint64_t timed_after, SpanRecorder* rec) {
  Replay out;
  auto resolver =
      std::make_unique<hyder::ServerResolver>(log, hyder::ResolverOptions{});
  hyder::ServerResolver* const r = resolver.get();
  Decisions decided(stream.size() + 2, -1);
  std::atomic<uint64_t> decisions{0};
  std::atomic<uint64_t> mid_decisions{0};
  std::atomic<uint64_t> mid_ns{0};
  auto pipeline = std::make_unique<hyder::ThreadedPipeline>(
      config, hyder::DatabaseState{0, hyder::Ref::Null()}, r,
      [r](const hyder::NodePtr& n) { r->RegisterEphemeral(n); },
      [&](const MeldDecision& d) {
        decided[d.seq] = d.committed ? 1 : 0;  // Meld thread only.
        const uint64_t n =
            decisions.fetch_add(1, std::memory_order_release) + 1;
        if (n == mid_decisions.load(std::memory_order_relaxed)) {
          mid_ns.store(Stopwatch::NowNanos(), std::memory_order_relaxed);
        }
      },
      [r](uint64_t seq, const hyder::IntentionPtr& intent,
          std::vector<hyder::NodePtr>&& nodes) {
        r->CacheIntention(seq, std::move(nodes),
                          intent->flats.empty()
                              ? nullptr
                              : intent->flats.front().second);
      });
  pipeline->Start();
  auto feed = [&](const LogIntention& li) {
    {
      ScopedSpan span(rec, Layer::kResolver, li.seq);
      r->RecordIntentionBlocks(li.seq, li.positions, li.txn_id);
    }
    hyder::RawIntention raw;
    raw.seq = li.seq;
    raw.txn_id = li.txn_id;
    raw.block_count = li.block_count;
    raw.payload = li.payload;
    ScopedSpan span(rec, Layer::kPipelineFeed, li.seq);
    CheckOk(pipeline->FeedRaw(std::move(raw)), "threaded replay feed");
  };
  size_t i = 0;
  for (; i < stream.size() && stream[i].seq <= timed_after; ++i) {
    feed(stream[i]);
  }
  // FirstError() is non-OK even on a healthy pipeline; a poisoned one
  // stops deciding, which the deadline catches.
  const double deadline = NowSeconds() + 120;
  {
    ScopedSpan span(rec, Layer::kPipelineDrain);
    while (decisions.load(std::memory_order_acquire) < i) {
      if (NowSeconds() > deadline) {
        Die("threaded replay stalled: " + pipeline->FirstError().ToString());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const PipelineStats before = pipeline->StatsSnapshot();
  const uint64_t timed = stream.size() - i;
  mid_decisions.store(i + timed / 2, std::memory_order_relaxed);
  const double t0 = NowSeconds();
  for (; i < stream.size(); ++i) feed(stream[i]);
  {
    ScopedSpan span(rec, Layer::kPipelineDrain);
    pipeline->Close();
    pipeline->Join();
  }
  out.timed_s = NowSeconds() - t0;
  out.timed_intentions = timed;
  out.drift = HalfRateRatio(timed, t0, double(mid_ns.load()) / 1e9,
                            t0 + out.timed_s);
  out.stats = pipeline->StatsSnapshot();
  out.stats.handoff_blocked_push_nanos -= before.handoff_blocked_push_nanos;
  out.stats.handoff_blocked_pop_nanos -= before.handoff_blocked_pop_nanos;
  out.stats.handoff_blocked_pushes -= before.handoff_blocked_pushes;
  out.stats.handoff_blocked_pops -= before.handoff_blocked_pops;
  out.decided = std::move(decided);
  {
    ScopedSpan span(rec, Layer::kTeardown);
    pipeline.reset();
    resolver.reset();
  }
  return out;
}

/// SequentialPipeline replay, decoding on this thread the way the server's
/// poll loop does. Decode latency is sampled over the timed part.
Replay RunSequentialReplay(hyder::SharedLog* log,
                           const std::vector<LogIntention>& stream,
                           const hyder::PipelineConfig& config,
                           uint64_t timed_after, SpanRecorder* rec) {
  Replay out;
  auto resolver =
      std::make_unique<hyder::ServerResolver>(log, hyder::ResolverOptions{});
  hyder::ServerResolver* const r = resolver.get();
  auto pipeline = std::make_unique<hyder::SequentialPipeline>(
      config, hyder::DatabaseState{0, hyder::Ref::Null()}, r,
      [r](const hyder::NodePtr& n) { r->RegisterEphemeral(n); });
  auto book = [&](const std::vector<MeldDecision>& ds) {
    for (const MeldDecision& d : ds) Record(&out.decided, d.seq, d.committed);
  };
  double t0 = 0;
  for (const LogIntention& li : stream) {
    const bool timed = li.seq > timed_after;
    if (timed && t0 == 0) t0 = NowSeconds();
    {
      ScopedSpan span(rec, Layer::kResolver, li.seq);
      r->RecordIntentionBlocks(li.seq, li.positions, li.txn_id);
    }
    std::vector<hyder::NodePtr> nodes;
    Result<hyder::IntentionPtr> intent = [&] {
      ScopedSpan span(rec, Layer::kTxnDecode, li.seq);
      const uint64_t d0 = Stopwatch::NowNanos();
      Result<hyder::IntentionPtr> decoded = hyder::DeserializeIntention(
          li.payload, li.seq, li.block_count, r, li.txn_id, &nodes);
      if (timed) {
        out.decode_us.push_back(double(Stopwatch::NowNanos() - d0) / 1e3);
      }
      return decoded;
    }();
    CheckOk(intent.status(), "sequential replay decode");
    {
      ScopedSpan span(rec, Layer::kResolver, li.seq);
      r->CacheIntention(li.seq, std::move(nodes),
                        (*intent)->flats.empty()
                            ? nullptr
                            : (*intent)->flats.front().second);
    }
    Result<std::vector<MeldDecision>> ds = [&] {
      ScopedSpan span(rec, Layer::kMeldProcess, li.seq);
      return pipeline->Process(std::move(*intent));
    }();
    CheckOk(ds.status(), "sequential replay meld");
    book(*ds);
    if (timed) out.timed_intentions++;
  }
  Result<std::vector<MeldDecision>> tail = pipeline->Flush();
  CheckOk(tail.status(), "sequential replay flush");
  book(*tail);
  out.timed_s = t0 > 0 ? NowSeconds() - t0 : 0;
  {
    ScopedSpan span(rec, Layer::kTeardown);
    pipeline.reset();
    resolver.reset();
  }
  return out;
}

// ---------------------------------------------------------------------------
// One full run of a workload.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void Put(Metrics* m, std::string name, double value, std::string unit) {
  m->push_back({std::move(name), value, std::move(unit)});
}

/// Collects output-check failures; any failure makes the run incorrect.
struct Checker {
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    failures.push_back(what);
    std::printf("MISMATCH: %s\n", what.c_str());
  }
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics e2e;
  Metrics layers;
};

/// `a - b` for the PipelineStats fields the window metrics read.
PipelineStats Delta(const PipelineStats& a, const PipelineStats& b) {
  PipelineStats d = a;
  d.intentions -= b.intentions;
  d.premeld_skips -= b.premeld_skips;
  d.final_melds -= b.final_melds;
  d.conflict_zone_sum -= b.conflict_zone_sum;
  d.fm_resolver_locks -= b.fm_resolver_locks;
  d.premeld.cpu_nanos -= b.premeld.cpu_nanos;
  d.premeld.nodes_visited -= b.premeld.nodes_visited;
  d.group_meld.cpu_nanos -= b.group_meld.cpu_nanos;
  d.final_meld.cpu_nanos -= b.final_meld.cpu_nanos;
  d.final_meld.nodes_visited -= b.final_meld.nodes_visited;
  for (int c = 0; c < hyder::kAbortCauseCount; ++c) {
    d.aborts_by_cause[c] -= b.aborts_by_cause[c];
  }
  return d;
}

/// What the timed live window measured.
struct Window {
  Tally tally;
  uint64_t melds = 0;
  PipelineStats stats;  ///< Deltas over the window.
  uint64_t log_appends = 0;
  uint64_t log_bytes = 0;
  uint64_t refetches = 0;
  size_t cached_intentions = 0;
  size_t ephemerals = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  double seconds = 0;
  double drift = 0;  ///< Second-half commit rate over first-half rate.
};

Window RunWindow(Live& live, LoadDriver& driver, const WorkloadSpec& w,
                 SpanRecorder* rec) {
  HyderServer& server = *live.server;
  Window out;
  const hyder::LogStats log0 = live.store->stats();
  const PipelineStats stats0 = server.stats();
  const uint64_t refetch0 = server.resolver().refetches();
  ScopedSpan span(rec, Layer::kPhase, 0, "window");
  const double t0 = NowSeconds();
  double t1 = 0;
  uint64_t c1 = 0;
  if (w.open_loop) {
    hyder::ArrivalOptions arrivals;
    arrivals.rate_tps = w.rate_tps;
    arrivals.count = w.window;
    arrivals.seed = w.gen.seed ^ 0x9e3779b97f4a7c15ull;
    const std::vector<uint64_t> schedule =
        hyder::BuildArrivalSchedule(arrivals);
    const uint64_t start = Stopwatch::NowNanos();
    driver.RunOpen(schedule, 0, schedule.size() / 2, start, &out.late_us);
    t1 = NowSeconds();
    c1 = driver.tally().committed;
    driver.RunOpen(schedule, schedule.size() / 2, schedule.size(), start,
                   &out.late_us);
    driver.Drain();
  } else {
    driver.RunClosed(w.inflight, w.window / 2, w.planned);
    t1 = NowSeconds();
    c1 = driver.tally().committed;
    driver.RunClosed(w.inflight, w.window, w.planned);
  }
  const double t2 = NowSeconds();
  out.seconds = t2 - t0;
  out.tally = driver.tally();
  out.drift = Ratio(Ratio(double(out.tally.committed - c1), t2 - t1),
                    Ratio(double(c1), t1 - t0));
  out.melds = driver.melds();
  out.stats = Delta(server.stats(), stats0);
  const hyder::LogStats log1 = live.store->stats();
  out.log_appends = log1.appends - log0.appends;
  out.log_bytes = log1.bytes_appended - log0.bytes_appended;
  out.refetches = server.resolver().refetches() - refetch0;
  out.cached_intentions = server.resolver().cached_intentions();
  out.ephemerals = server.resolver().ephemeral_count();
  out.latency_us = driver.latency_us();
  return out;
}

/// Both engines must decide every intention of the log identically (§3.4).
void CheckReplays(const std::vector<LogIntention>& stream,
                  const Replay& threaded, const Replay& sequential,
                  Checker* check) {
  for (const LogIntention& li : stream) {
    const int8_t a =
        li.seq < threaded.decided.size() ? threaded.decided[li.seq] : -1;
    const int8_t b =
        li.seq < sequential.decided.size() ? sequential.decided[li.seq] : -1;
    if (a < 0 || a != b) {
      check->Fail("threaded and sequential replays disagree at seq " +
                  std::to_string(li.seq));
      return;
    }
  }
}

/// The caught-up server must match the replays' commit/abort totals over
/// the sequences it decided, and be PhysicallyEqual to the live server at
/// the live server's latest sequence.
void CheckCatchUp(HyderServer& live, HyderServer& caught_up,
                  uint64_t ckpt_seq, const Replay& reference,
                  Checker* check) {
  const uint64_t hi = caught_up.LatestState().seq;
  uint64_t commits = 0, aborts = 0;
  for (uint64_t s = ckpt_seq + 1; s <= hi; ++s) {
    if (s >= reference.decided.size() || reference.decided[s] < 0) {
      check->Fail("the replays never decided seq " + std::to_string(s));
      return;
    }
    (reference.decided[s] ? commits : aborts)++;
  }
  if (commits != caught_up.stats().committed ||
      aborts != caught_up.stats().aborted) {
    check->Fail("caught-up server decided " +
                std::to_string(caught_up.stats().committed) + " commits / " +
                std::to_string(caught_up.stats().aborted) +
                " aborts, the replays " + std::to_string(commits) + " / " +
                std::to_string(aborts));
  }
  const hyder::DatabaseState mine = live.LatestState();
  Result<hyder::DatabaseState> theirs =
      caught_up.pipeline().states().Get(mine.seq);
  if (!theirs.ok()) {
    check->Fail("caught-up server lacks state " + std::to_string(mine.seq) +
                ": " + theirs.status().ToString());
    return;
  }
  std::string diff;
  Result<bool> same = hyder::PhysicallyEqual(
      &live.resolver(), mine.root, &caught_up.resolver(), theirs->root, &diff);
  if (!same.ok()) {
    check->Fail("physical comparison failed: " + same.status().ToString());
  } else if (!*same) {
    check->Fail("caught-up state differs at seq " + std::to_string(mine.seq) +
                ": " + diff);
  }
}

/// The live server must agree with the replays on every sequence both saw.
void CheckLive(const Decisions& ledger, const Replay& reference,
               Checker* check) {
  uint64_t compared = 0;
  for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
    if (ledger[seq] < 0 || seq >= reference.decided.size() ||
        reference.decided[seq] < 0) {
      continue;  // Undecided, or appended after the replays read the log.
    }
    compared++;
    if (reference.decided[seq] != ledger[seq]) {
      check->Fail("live server and replays disagree at seq " +
                  std::to_string(seq));
      return;
    }
  }
  if (compared == 0) check->Fail("no live decision could be compared");
}

/// Share of a phase's wall time that no layer span covers may not exceed
/// this on deep_uniform's window: the per-layer busy times along the
/// blocking path (one thread) must add up to the wall time.
constexpr double kReconcileTolerance = 0.05;

/// Prints the per-layer table of every phase and adds the span-derived
/// layer metrics of the live windows.
void ReportTrace(const SpanRecorder& rec, bool gate, Checker* check,
                 Metrics* layers) {
  // One table per phase name; repeated phases (sessions, replays,
  // catch-ups) are summed.
  const std::vector<Span>& spans = rec.spans();
  std::vector<std::string> labels;
  std::map<std::string, std::pair<double, std::vector<LayerTotals>>> phases;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 || spans[i].layer != Layer::kPhase) continue;
    auto [it, fresh] = phases.try_emplace(spans[i].label);
    if (fresh) {
      labels.push_back(spans[i].label);
      it->second.second.resize(size_t(Layer::kCount));
    }
    it->second.first += double(spans[i].end_ns - spans[i].start_ns) / 1e6;
    const std::vector<LayerTotals> totals = rec.Totals(uint32_t(i + 1));
    for (size_t l = 0; l < totals.size(); ++l) {
      LayerTotals& sum = it->second.second[l];
      sum.count += totals[l].count;
      sum.total_ns += totals[l].total_ns;
      sum.self_ns += totals[l].self_ns;
      sum.durations_us.insert(sum.durations_us.end(),
                              totals[l].durations_us.begin(),
                              totals[l].durations_us.end());
    }
  }
  for (const std::string& label : labels) {
    const auto& [wall_ms, totals] = phases[label];
    std::printf("trace phase %-18s wall %10.1f ms\n", label.c_str(), wall_ms);
    std::printf("  %-18s %9s %11s %11s %7s %10s %10s\n", "layer", "count",
                "busy_ms", "self_ms", "self%", "p50_us", "p99_us");
    for (size_t l = 0; l < totals.size(); ++l) {
      const LayerTotals& t = totals[l];
      if (t.count == 0) continue;
      std::printf("  %-18s %9llu %11.1f %11.1f %6.1f%% %10.1f %10.1f\n",
                  l == 0 ? "(unattributed)" : LayerName(Layer(l)),
                  (unsigned long long)t.count, double(t.total_ns) / 1e6,
                  double(t.self_ns) / 1e6,
                  100.0 * double(t.self_ns) / 1e6 / wall_ms,
                  Quantile(t.durations_us, 0.5),
                  Quantile(t.durations_us, 0.99));
    }
  }
  const auto& [wall_ms, t] = phases["window"];
  auto us = [&t = t](Layer l, double q) {
    return Quantile(t[size_t(l)].durations_us, q);
  };
  Put(layers, "server.exec_us.p50", us(Layer::kServerExec, 0.5), "us");
  Put(layers, "server.exec_us.p99", us(Layer::kServerExec, 0.99), "us");
  Put(layers, "server.submit_us.p50", us(Layer::kServerSubmit, 0.5), "us");
  Put(layers, "server.submit_us.p99", us(Layer::kServerSubmit, 0.99), "us");
  Put(layers, "server.poll_us.p50", us(Layer::kServerPoll, 0.5), "us");
  Put(layers, "server.poll_us.max", us(Layer::kServerPoll, 1.0), "us");
  Put(layers, "log.append_us.p50", us(Layer::kLogAppend, 0.5), "us");
  Put(layers, "log.append_us.p99", us(Layer::kLogAppend, 0.99), "us");
  Put(layers, "log.read_us.p50", us(Layer::kLogRead, 0.5), "us");
  const double wall_ns = wall_ms * 1e6;
  for (Layer l : {Layer::kServerExec, Layer::kServerSubmit, Layer::kServerPoll,
                  Layer::kLogAppend, Layer::kLogRead, Layer::kDriverWait}) {
    Put(layers, std::string("self_frac.") + LayerName(l),
        Ratio(double(t[size_t(l)].self_ns), wall_ns), "ratio");
  }
  const double unattributed =
      Ratio(double(t[size_t(Layer::kPhase)].self_ns), wall_ns);
  Put(layers, "trace.unattributed_frac", unattributed, "ratio");
  std::printf("trace: window layers cover %.2f%% of wall time "
              "(tolerance %.0f%% unattributed)\n",
              100.0 * (1 - unattributed), 100.0 * kReconcileTolerance);
  if (gate && unattributed > kReconcileTolerance) {
    check->Fail("per-layer busy time does not reconcile with wall time: " +
                std::to_string(unattributed) + " unattributed");
  }
}

/// Raw results of one session: set-up, live window, replays, catch-up and
/// the rest of the planned run, on one fresh log and server.
struct Session {
  std::vector<double> setup_s;
  double checkpoint_s = 0;
  Window win;  ///< The window of the instance that carries on.
  std::vector<Window> dropped;  ///< Windows of the earlier instances.
  std::vector<double> meld_ips, meld_drift;
  std::vector<double> catchup_ips, catchup_replay_ips, catchup_fetch_s,
      catchup_drift;
  double seq_replay_ips = 0;
  PipelineStats threaded_stats;
  std::vector<double> decode_us;
  double intent_bytes = 0;  ///< Summed over the intentions after the
  uint64_t intents = 0;     ///< checkpoint.
  double peak_rss_mb = 0;
  hyder::ArenaStats arena;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t crash_meld = 0;  ///< Melds before the first server error; with
                            ///< none, all the live server's melds.
};

Session RunSession(const WorkloadSpec& w, SpanRecorder* rec,
                   Checker* check) {
  Session out;

  // --- set-up, repeated; the last instance carries on. With
  // window_per_setup each earlier instance also runs the timed window,
  // untraced, before it is dropped.
  double t = NowSeconds();
  std::unique_ptr<Live> live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    live.reset();
    const bool last = i == kSetupRepeats - 1;
    SpanRecorder* r = last ? rec : nullptr;
    {
      ScopedSpan span(r, Layer::kPhase, 0, "setup");
      live = SetUp(w, r);
    }
    out.setup_s.push_back(live->setup_s);
    if (!last && w.window_per_setup) {
      LoadDriver driver(live->server.get(), live->gen.get(), nullptr);
      out.dropped.push_back(RunWindow(*live, driver, w, nullptr));
    }
  }
  out.checkpoint_s = live->checkpoint_s;
  HyderServer& server = *live->server;
  const uint64_t ckpt_seq = live->checkpoint.state_seq;
  std::printf("phase setup: %.2f s (x%d, checkpoint at seq %llu):",
              NowSeconds() - t, kSetupRepeats, (unsigned long long)ckpt_seq);
  for (double v : out.setup_s) std::printf(" %.3f", v);
  std::printf("\n");

  // --- timed live window.
  t = NowSeconds();
  LoadDriver driver(&server, live->gen.get(), rec);
  out.win = RunWindow(*live, driver, w, rec);
  std::printf("phase window: %.2f s, %llu melds%s, commits/s:",
              NowSeconds() - t, (unsigned long long)out.win.melds,
              driver.crashed() ? " (server crashed)" : "");
  for (const Window& d : out.dropped) {
    std::printf(" %.0f", Ratio(double(d.tally.committed), d.seconds));
  }
  std::printf(" %.0f\n", Ratio(double(out.win.tally.committed), out.win.seconds));

  // --- replays and catch-up (skipped once the live server has crashed).
  Replay sequential;
  CatchUp cu;
  if (!driver.crashed()) {
    t = NowSeconds();
    const std::vector<LogIntention> stream = ReadBack(live->store.get());
    {
      ScopedSpan span(rec, Layer::kPhase, 0, "replay.sequential");
      sequential = RunSequentialReplay(live->store.get(), stream,
                                       w.server.pipeline, ckpt_seq, rec);
    }
    out.seq_replay_ips =
        Ratio(double(sequential.timed_intentions), sequential.timed_s);
    out.decode_us = sequential.decode_us;
    for (const LogIntention& li : stream) {
      if (li.seq <= ckpt_seq) continue;
      out.intent_bytes += double(li.payload.size());
      out.intents++;
    }
    // Both rates swing with thread scheduling and with the host's memory
    // traffic: each is measured several times, alternating threaded replays
    // with catch-ups so that both sample the whole phase, and the median is
    // reported. Each catch-up bootstraps a fresh server from the
    // checkpoint; the last one is checked.
    for (int i = 0; i < std::max(w.replays, w.catchups); ++i) {
      if (i < w.replays) {
        ScopedSpan span(rec, Layer::kPhase, 0, "replay.threaded");
        const Replay threaded = RunThreadedReplay(
            live->store.get(), stream, w.server.pipeline, ckpt_seq, rec);
        CheckReplays(stream, threaded, sequential, check);
        out.meld_ips.push_back(
            Ratio(double(threaded.timed_intentions), threaded.timed_s));
        out.meld_drift.push_back(threaded.drift);
        out.threaded_stats = threaded.stats;
      }
      if (i < w.catchups && (i == 0 || cu.error.ok())) {
        {
          ScopedSpan span(rec, Layer::kPhase, 0, "catchup");
          cu = RunCatchUp(*live, w, out.intents, rec);
        }
        out.catchup_ips.push_back(Ratio(double(cu.intentions), cu.total_s));
        out.catchup_replay_ips.push_back(
            Ratio(double(cu.intentions), cu.total_s - cu.fetch_s));
        out.catchup_fetch_s.push_back(cu.fetch_s);
        out.catchup_drift.push_back(cu.drift);
        if (cu.error.ok() && i + 1 == w.catchups) {
          ScopedSpan span(rec, Layer::kPhase, 0, "check");
          CheckCatchUp(server, *cu.server, ckpt_seq, sequential, check);
        }
        // Torn down before the next replay, so that peak RSS covers one
        // extra server at a time, as in a real rejoin.
        ScopedSpan span(rec, Layer::kPhase, 0, "catchup.teardown");
        ScopedSpan teardown(rec, Layer::kTeardown);
        cu.server.reset();
      }
    }
    if (!cu.error.ok()) {
      std::printf("catch-up crash after %llu melds: %s\n",
                  (unsigned long long)cu.intentions,
                  cu.error.ToString().c_str());
    }
    std::printf("phase replay + catch-up: %.2f s\n", NowSeconds() - t);
    std::printf("  threaded replay intentions/s:");
    for (double v : out.meld_ips) std::printf(" %.0f", v);
    std::printf("\n  catch-up intentions/s:");
    for (double v : out.catchup_ips) std::printf(" %.0f", v);
    std::printf("\n");
  }
  out.peak_rss_mb = PeakRssMb();
  out.arena = hyder::NodeArenaStats();
  cu.server.reset();

  // --- rest of the planned run: counts only in fail_frac. A catch-up
  // crash ends the run like a live-server crash.
  t = NowSeconds();
  if (cu.error.ok() && !w.open_loop) {
    ScopedSpan span(rec, Layer::kPhase, 0, "rest");
    driver.RunClosed(w.inflight, UINT64_MAX, w.planned);
    driver.Drain();
  }
  out.attempted = w.planned;
  out.failed = driver.Finish(w.planned);
  out.crash_meld = driver.crashed()   ? driver.crash_meld()
                   : !cu.error.ok() ? cu.intentions
                                    : driver.melds();
  if (!sequential.decided.empty()) {
    CheckLive(driver.ledger(), sequential, check);
  }
  const Tally& all = driver.tally();
  std::printf("phase rest: %.2f s\n", NowSeconds() - t);
  std::printf("run: %llu planned, %llu issued, %llu committed, %llu aborted, "
              "%llu busy, %llu stale, %llu lost\n",
              (unsigned long long)w.planned, (unsigned long long)all.issued,
              (unsigned long long)all.committed,
              (unsigned long long)all.aborted, (unsigned long long)all.busy,
              (unsigned long long)all.stale,
              (unsigned long long)driver.lost());
  return out;
}

template <typename F>
std::vector<double> Pool(const std::vector<Session>& sessions, F field) {
  std::vector<double> all;
  for (const Session& s : sessions) {
    const std::vector<double>& v = field(s);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

RunResult RunWorkload(const WorkloadSpec& spec, bool trace,
                      const std::string& span_out) {
  SpanRecorder recorder;
  SpanRecorder* rec = trace ? &recorder : nullptr;
  Checker check;
  std::vector<Session> sessions;
  for (int k = 0; k < spec.sessions; ++k) {
    WorkloadSpec w = spec;
    w.gen.seed = spec.gen.seed * 1000 + uint64_t(k);
    std::printf("session %d (workload seed %llu)\n", k,
                (unsigned long long)w.gen.seed);
    sessions.push_back(RunSession(w, rec, &check));
  }

  // Rate and latency: pooled over every window run, dropped instances'
  // included.
  double window_s = 0, window_commits = 0;
  std::vector<double> latency, window_drift;
  for (const Session& s : sessions) {
    std::vector<const Window*> all{&s.win};
    for (const Window& d : s.dropped) all.push_back(&d);
    for (const Window* x : all) {
      window_s += x->seconds;
      window_commits += double(x->tally.committed);
      latency.insert(latency.end(), x->latency_us.begin(),
                     x->latency_us.end());
      window_drift.push_back(x->drift);
    }
  }
  // Counts: totals over the windows of the instances that carry on.
  RunResult res;
  Tally win;
  PipelineStats ps;
  double log_bytes = 0, log_appends = 0, refetches = 0;
  double intent_bytes = 0, intents = 0, crash_meld = 0;
  for (const Session& s : sessions) {
    res.attempted += s.attempted;
    res.failed += s.failed;
    win.issued += s.win.tally.issued;
    win.committed += s.win.tally.committed;
    win.read_only += s.win.tally.read_only;
    win.busy += s.win.tally.busy;
    win.stale += s.win.tally.stale;
    ps += s.win.stats;
    log_bytes += double(s.win.log_bytes);
    log_appends += double(s.win.log_appends);
    refetches += double(s.win.refetches);
    intent_bytes += s.intent_bytes;
    intents += double(s.intents);
    crash_meld += double(s.crash_meld);
  }
  const Session& last = sessions.back();
  const double writes_committed = double(win.committed - win.read_only);
  auto median = [&](auto field) { return Quantile(Pool(sessions, field), 0.5); };
  const double drift_commit = Quantile(window_drift, 0.5);
  const double drift_meld =
      median([](const Session& s) -> auto& { return s.meld_drift; });
  const double drift_catchup =
      median([](const Session& s) -> auto& { return s.catchup_drift; });
  // Drift: second-half rate over first-half rate within each timed phase,
  // to tell a longer run from a slower one.
  std::printf("drift (second-half/first-half rate): commit_tps %.3f, "
              "meld_ips %.3f, catchup_ips %.3f\n",
              drift_commit, drift_meld, drift_catchup);
  std::printf("decision latency: %zu samples (%zu beyond p99), us at",
              latency.size(), latency.size() / 100);
  for (double q : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99}) {
    std::printf(" p%g %.1f", 100 * q, Quantile(latency, q));
  }
  std::printf("\n");

  // --- end-to-end metrics.
  Put(&res.e2e, "setup_s",
      median([](const Session& s) -> auto& { return s.setup_s; }), "s");
  Put(&res.e2e, "commit_tps", Ratio(window_commits, window_s), "1/s");
  // Roll-forward capacity is the best threaded replay: host contention
  // only ever slows one, and it stalls the four pipeline threads far more
  // than the single-threaded phases (a phase with 4% steal halved most
  // replays while the catch-ups beside them held their rate).
  Put(&res.e2e, "meld_ips",
      Quantile(Pool(sessions, [](const Session& s) -> auto& {
                 return s.meld_ips;
               }),
               1.0),
      "1/s");
  Put(&res.e2e, "catchup_ips",
      median([](const Session& s) -> auto& { return s.catchup_ips; }),
      "1/s");
  Put(&res.e2e, "fail_frac", Ratio(double(res.failed), double(res.attempted)),
      "ratio");
  Put(&res.e2e, "log_bytes_per_commit", Ratio(log_bytes, writes_committed),
      "B");
  Put(&res.e2e, "peak_rss_mb", last.peak_rss_mb, "MB");
  Put(&res.e2e, "decision_p50_us", Quantile(latency, 0.5), "us");
  Put(&res.e2e, "decision_p99_us", Quantile(latency, 0.99), "us");

  // --- per-layer metrics: exact counts from the stats the program exposes.
  const double n = double(std::max<uint64_t>(ps.intentions, 1));
  Metrics& L = res.layers;
  Put(&L, "server.stale_reads", double(win.stale), "count");
  Put(&L, "server.crash_meld", crash_meld, "count");
  Put(&L, "resolver.refetches_per_intent", refetches / n, "count");
  Put(&L, "resolver.cached_intentions", double(last.win.cached_intentions),
      "count");
  Put(&L, "resolver.ephemerals", double(last.win.ephemerals), "count");
  const auto decode = Pool(sessions, [](const Session& s) -> auto& {
    return s.decode_us;
  });
  Put(&L, "txn.decode_us.p50", Quantile(decode, 0.5), "us");
  Put(&L, "txn.decode_us.p99", Quantile(decode, 0.99), "us");
  Put(&L, "txn.intent_bytes", Ratio(intent_bytes, intents), "B");
  Put(&L, "log.blocks_per_commit", Ratio(log_appends, writes_committed),
      "count");
  Put(&L, "meld.premeld_us_per_intent", double(ps.premeld.cpu_nanos) / 1e3 / n,
      "us");
  Put(&L, "meld.group_us_per_intent",
      double(ps.group_meld.cpu_nanos) / 1e3 / n, "us");
  Put(&L, "meld.final_us_per_intent",
      double(ps.final_meld.cpu_nanos) / 1e3 / n, "us");
  Put(&L, "meld.premeld_nodes_per_intent",
      double(ps.premeld.nodes_visited) / n, "count");
  Put(&L, "meld.final_nodes_per_intent",
      double(ps.final_meld.nodes_visited) / n, "count");
  Put(&L, "meld.premeld_skip_frac", double(ps.premeld_skips) / n, "ratio");
  Put(&L, "meld.zone_mean",
      Ratio(double(ps.conflict_zone_sum), double(ps.final_melds)), "count");
  Put(&L, "meld.fm_locks_per_intent", double(ps.fm_resolver_locks) / n,
      "count");
  for (int c = 1; c < hyder::kAbortCauseCount; ++c) {
    const auto cause = static_cast<AbortCause>(c);
    // Admission rejections never reach the pipeline; the driver counts
    // them.
    const double count = cause == AbortCause::kAbortBusy
                             ? double(win.busy)
                             : double(ps.aborts_by_cause[c]);
    Put(&L, std::string("meld.abort_frac.") + hyder::AbortCauseName(cause),
        count / n, "ratio");
  }
  Put(&L, "pipeline.seq_replay_ips",
      median([](const Session& s) {
        return std::vector<double>{s.seq_replay_ips};
      }),
      "1/s");
  Put(&L, "pipeline.handoff_push_blocked_ms",
      double(last.threaded_stats.handoff_blocked_push_nanos) / 1e6, "ms");
  Put(&L, "pipeline.handoff_pop_blocked_ms",
      double(last.threaded_stats.handoff_blocked_pop_nanos) / 1e6, "ms");
  Put(&L, "checkpoint.write_s", last.checkpoint_s, "s");
  Put(&L, "catchup.fetch_s",
      median([](const Session& s) -> auto& { return s.catchup_fetch_s; }),
      "s");
  Put(&L, "catchup.replay_ips",
      median([](const Session& s) -> auto& { return s.catchup_replay_ips; }),
      "1/s");
  Put(&L, "arena.live_nodes", double(last.arena.live), "count");
  Put(&L, "arena.slab_mb", double(last.arena.slab_bytes) / 1048576.0, "MB");
  Put(&L, "driver.late_us.p99",
      Quantile(Pool(sessions,
                    [](const Session& s) -> auto& { return s.win.late_us; }),
               0.99),
      "us");
  Put(&L, "driver.busy_frac",
      Ratio(double(win.busy), double(win.issued)), "ratio");
  Put(&L, "drift.commit_tps", drift_commit, "ratio");
  Put(&L, "drift.meld_ips", drift_meld, "ratio");
  Put(&L, "drift.catchup_ips", drift_catchup, "ratio");

  if (trace) {
    ReportTrace(recorder, spec.name == "deep_uniform", &check, &L);
    if (!span_out.empty() && !recorder.WriteJsonLines(span_out)) {
      std::printf("could not write spans to %s\n", span_out.c_str());
    }
  }
  res.correct = check.failures.empty();
  return res;
}

// ---------------------------------------------------------------------------
// Output.

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintResult(const RunResult& r, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              (unsigned long long)r.attempted, (unsigned long long)r.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
}

void PrintMetrics(const char* kind, const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-36s %16.4f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string span_out;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Die("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atoi(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--span-out") {
      span_out = v;
    } else {
      Die("unknown argument " + a);
    }
  }
  if (seconds < 1) Die("--seconds must be at least 1");
  const WorkloadSpec spec = MakeSpec(workload, seed, seconds);
  const std::pair<uint64_t, uint64_t> ticks0 = CpuTicks();
  auto print_steal = [&ticks0] {
    const std::pair<uint64_t, uint64_t> t1 = CpuTicks();
    std::printf("machine: steal %.1f%% of CPU time during the run\n",
                100.0 * Ratio(double(t1.first - ticks0.first),
                              double(t1.second - ticks0.second)));
  };
  std::printf("machine: nproc=%u cpu=\"%s\" kernel=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              Kernel().c_str());
  std::printf("workload: %s seed=%llu seconds=%d trace=%d\n",
              workload.c_str(), (unsigned long long)seed, seconds, trace);
  if (trace == 0) {
    const RunResult r = RunWorkload(spec, false, "");
    PrintMetrics("e2e", r.e2e);
    PrintMetrics("layer", r.layers);
    print_steal();
    PrintResult(r, r.e2e);
    return r.correct ? 0 : 1;
  }
  // Traced run: the same run untraced first, so the tracing overhead on
  // every end-to-end metric can be reported.
  std::printf("== untraced pass ==\n");
  const RunResult plain = RunWorkload(spec, false, "");
  std::printf("== traced pass ==\n");
  RunResult traced = RunWorkload(spec, true, span_out);
  for (size_t i = 0; i < traced.e2e.size(); ++i) {
    const Metric& a = plain.e2e[i];
    const Metric& b = traced.e2e[i];
    std::printf("tracing overhead on %-22s %12.4f -> %12.4f %s\n",
                a.name.c_str(), a.value, b.value, a.unit.c_str());
    Put(&traced.layers, "overhead." + a.name,
        a.value != 0 ? b.value / a.value - 1 : 0, "ratio");
  }
  PrintMetrics("e2e", traced.e2e);
  PrintMetrics("layer", traced.layers);
  traced.correct = traced.correct && plain.correct;
  print_steal();
  PrintResult(traced, traced.layers);
  return traced.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
