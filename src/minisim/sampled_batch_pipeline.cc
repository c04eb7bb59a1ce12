#include "src/minisim/sampled_batch_pipeline.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace macaron {

SampledBatchPipeline::SampledBatchPipeline(double ratio, uint64_t salt, PrepareFn prepare,
                                           ReplayFn replay)
    : sampler_(ratio, salt), prepare_(std::move(prepare)), replay_(std::move(replay)) {
  filling_.Reserve(kBatchCapacity);
  replaying_.Reserve(kBatchCapacity);
}

SampledBatchPipeline::~SampledBatchPipeline() { Join(); }

void SampledBatchPipeline::Append(const ReplayBatch& chunk, size_t begin, size_t end) {
  const size_t n = end - begin;
  if (n == 0) {
    return;
  }
  window_.requests += n;
  uint64_t gets = 0;
  for (size_t k = begin; k < end; ++k) {
    gets += static_cast<uint64_t>(chunk.ops[k] == Op::kGet);
  }
  window_.gets += gets;
  if (idx_scratch_.size() < n) {
    idx_scratch_.resize(n);
    hash_scratch_.resize(n);
  }
  const size_t m = sampler_.CompactAdmitted(chunk.ids.data() + begin, n, idx_scratch_.data(),
                                            hash_scratch_.data());
  for (size_t j = 0; j < m; ++j) {
    window_.sampled_gets +=
        static_cast<uint64_t>(chunk.ops[begin + idx_scratch_[j]] == Op::kGet);
  }
  size_t done = 0;
  while (done < m) {
    const size_t take = std::min(kBatchCapacity - filling_.size(), m - done);
    filling_.AppendGather(chunk, begin, idx_scratch_.data() + done, hash_scratch_.data() + done,
                          take);
    done += take;
    if (filling_.size() >= kBatchCapacity) {
      Flush();
    }
  }
}

void SampledBatchPipeline::Join() {
  for (std::future<void>& f : pending_) {
    f.get();
  }
  pending_.clear();
}

void SampledBatchPipeline::Flush() {
  if (filling_.empty()) {
    return;
  }
  if (m_batches_ != nullptr) {
    m_batches_->Inc();
    m_batch_requests_->Inc(filling_.size());
  }
  // One batch in flight at most: replay state persists across batches, so
  // batch N+1 must not be prepared or replayed before batch N finishes.
  Join();
  const size_t tasks = prepare_(filling_);
  if (pool_ != nullptr && async_) {
    std::swap(filling_, replaying_);
    if (tasks == 1) {
      pending_.push_back(pool_->Submit([this] { replay_(replaying_, 0); }));
    } else {
      pool_->ParallelForAsync(
          tasks, [this](size_t t) { replay_(replaying_, t); }, pending_);
    }
  } else if (pool_ != nullptr) {
    pool_->ParallelFor(tasks, [this](size_t t) { replay_(filling_, t); });
  } else {
    for (size_t t = 0; t < tasks; ++t) {
      replay_(filling_, t);
    }
  }
  filling_.Clear();
}

void SampledBatchPipeline::Drain() {
  Flush();
  Join();
}

SampledBatchPipeline::Window SampledBatchPipeline::EndWindow() {
  Drain();
  Window out = window_;
  out.realized_rate = (out.gets > 0 && out.sampled_gets > 0)
                          ? static_cast<double>(out.sampled_gets) / static_cast<double>(out.gets)
                          : ratio();
  window_ = Window{};
  return out;
}

}  // namespace macaron
