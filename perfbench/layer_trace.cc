#include "layer_trace.h"

#include <cstdio>

#include "common/stopwatch.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPhase: return "phase";
    case Layer::kServerExec: return "server.exec";
    case Layer::kServerSubmit: return "server.submit";
    case Layer::kServerPoll: return "server.poll";
    case Layer::kLogAppend: return "log.append";
    case Layer::kLogRead: return "log.read";
    case Layer::kTxnDecode: return "txn.decode";
    case Layer::kResolver: return "resolver";
    case Layer::kMeldProcess: return "meld.process";
    case Layer::kPipelineFeed: return "pipeline.feed";
    case Layer::kPipelineDrain: return "pipeline.drain";
    case Layer::kCheckpointWrite: return "checkpoint.write";
    case Layer::kCatchupFetch: return "catchup.fetch";
    case Layer::kCatchupReplay: return "catchup.replay";
    case Layer::kDriverWait: return "driver.wait";
    case Layer::kWorkloadSeed: return "workload.seed";
    case Layer::kTeardown: return "teardown";
    case Layer::kCount: break;
  }
  return "unknown";
}

uint32_t SpanRecorder::Open(Layer layer, uint64_t txn, std::string label) {
  if (std::this_thread::get_id() != owner_) return 0;
  Span s;
  s.parent = open_.empty() ? 0 : open_.back();
  s.layer = layer;
  s.txn = txn;
  s.label = std::move(label);
  s.start_ns = hyder::Stopwatch::NowNanos();
  spans_.push_back(std::move(s));
  const uint32_t handle = uint32_t(spans_.size());
  open_.push_back(handle);
  return handle;
}

void SpanRecorder::Close(uint32_t handle) {
  spans_[handle - 1].end_ns = hyder::Stopwatch::NowNanos();
  // Spans nest strictly (RAII on one thread), so the closing span is the
  // innermost open one.
  open_.pop_back();
}

std::vector<LayerTotals> SpanRecorder::Totals(uint32_t root) const {
  std::vector<LayerTotals> out(size_t(Layer::kCount));
  // Spans are stored in open order and nest strictly, so the subtree of
  // `root` is the contiguous run of spans that opened before it closed.
  const Span& r = spans_[root - 1];
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  size_t end = root;
  while (end < spans_.size() && spans_[end].start_ns < r.end_ns) ++end;
  for (size_t i = end; i-- > size_t(root - 1);) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    if (i != size_t(root - 1) && s.parent != 0) {
      child_ns[s.parent - 1] += dur;
    }
    LayerTotals& t = out[size_t(s.layer)];
    t.count++;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.durations_us.push_back(double(dur) / 1e3);
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"label\":\"%s\","
                 "\"txn\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i + 1, s.parent, LayerName(s.layer), s.label.c_str(),
                 (unsigned long long)s.txn, (unsigned long long)s.start_ns,
                 (unsigned long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
