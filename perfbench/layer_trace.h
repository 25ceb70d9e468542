#ifndef HYDER2_PERFBENCH_LAYER_TRACE_H_
#define HYDER2_PERFBENCH_LAYER_TRACE_H_

// Layer timing for the traced benchmark run.
//
// Spans are recorded around the benchmark's own calls into each module's
// public functions (nothing inside the program is instrumented): a span has
// a layer name, start, end, the span that was open when it began (its
// parent) and a transaction id. The recorder is confined to the thread that
// drives the server; calls arriving from any other thread (for example a
// replay worker refetching through the log) are not recorded. Spans stay in
// memory and are written out once, at the end of the run.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "log/shared_log.h"

namespace perfbench {

/// The layers the benchmark times. Names are the module names of src/.
enum class Layer : uint8_t {
  kPhase,            ///< A benchmark phase (root spans).
  kServerExec,       ///< Begin + transaction reads/writes.
  kServerSubmit,     ///< Submit: serialize + append.
  kServerPoll,       ///< Poll: tail read, decode, meld, sweep.
  kLogAppend,        ///< SharedLog::Append.
  kLogRead,          ///< SharedLog::Read.
  kTxnDecode,        ///< DeserializeIntention.
  kResolver,         ///< ServerResolver directory / cache updates.
  kMeldProcess,      ///< SequentialPipeline::Process.
  kPipelineFeed,     ///< ThreadedPipeline::FeedRaw (blocks on back-pressure).
  kPipelineDrain,    ///< ThreadedPipeline::Close + Join.
  kCheckpointWrite,  ///< WriteCheckpoint.
  kCatchupFetch,     ///< Catch-up: find + bootstrap from the checkpoint.
  kCatchupReplay,    ///< Catch-up: one replay batch.
  kDriverWait,       ///< Open loop: idle until the next arrival is due.
  kWorkloadSeed,     ///< WorkloadGenerator::SeedDatabase.
  kTeardown,         ///< Destroying a replay's or catch-up's server state.
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t parent = 0;  ///< Index + 1 of the enclosing span; 0 = root.
  Layer layer = Layer::kPhase;
  uint64_t txn = 0;     ///< Transaction id (or intention seq); 0 = none.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string label;    ///< Phase name (root spans only).
};

/// Per-layer totals over a set of spans.
struct LayerTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  ///< Duration minus what child spans cover.
  std::vector<double> durations_us;
};

class SpanRecorder {
 public:
  SpanRecorder() : owner_(std::this_thread::get_id()) {}

  /// Opens a span as a child of the innermost open span. Returns its
  /// handle (index + 1), or 0 when called off the owning thread.
  uint32_t Open(Layer layer, uint64_t txn, std::string label = {});
  void Close(uint32_t handle);
  /// Sets the transaction id of an open span (ids known only mid-span).
  void SetTxn(uint32_t handle, uint64_t txn) {
    if (handle != 0) spans_[handle - 1].txn = txn;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per layer over the subtree rooted at `root` (a handle), the
  /// root itself included.
  std::vector<LayerTotals> Totals(uint32_t root) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null recorder makes it free apart from one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, Layer layer, uint64_t txn = 0,
             std::string label = {})
      : rec_(rec),
        handle_(rec ? rec->Open(layer, txn, std::move(label)) : 0) {}
  ~ScopedSpan() {
    if (handle_ != 0) rec_->Close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t handle() const { return handle_; }

 private:
  SpanRecorder* rec_;
  uint32_t handle_;
};

/// SharedLog decorator that records a span around every Append and Read
/// made from the recorder's thread, and forwards everything else.
class TimedLog : public hyder::SharedLog {
 public:
  TimedLog(hyder::SharedLog* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  hyder::Result<uint64_t> Append(std::string block) override {
    ScopedSpan span(rec_, Layer::kLogAppend);
    return inner_->Append(std::move(block));
  }
  hyder::Result<std::string> Read(uint64_t position) override {
    ScopedSpan span(rec_, Layer::kLogRead, position);
    return inner_->Read(position);
  }
  uint64_t Tail() const override { return inner_->Tail(); }
  hyder::Status Truncate(uint64_t low_water_position) override {
    return inner_->Truncate(low_water_position);
  }
  uint64_t LowWaterMark() const override { return inner_->LowWaterMark(); }
  size_t block_size() const override { return inner_->block_size(); }
  void RecordRetry() override { inner_->RecordRetry(); }
  hyder::LogStats stats() const override { return inner_->stats(); }

 private:
  hyder::SharedLog* const inner_;
  SpanRecorder* const rec_;
};

}  // namespace perfbench

#endif  // HYDER2_PERFBENCH_LAYER_TRACE_H_
