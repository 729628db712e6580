// Fixed-size worker pool executing index-space batches.
//
// The orchestrator thread blocks until a batch drains; workers persist
// across batches.  parallelFor is exception-safe: an exception thrown by
// fn(i) is captured (first one wins), the rest of the batch still drains —
// so no worker is left holding a task and the done-count always completes —
// and the captured exception is rethrown on the calling thread.  Without
// that, a throwing task would unwind a worker's thread main and
// std::terminate the whole process.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ifko::search::detail {

class ThreadPool {
 public:
  explicit ThreadPool(int threads) {
    for (int i = 0; i < std::max(0, threads); ++i)
      workers_.emplace_back([this] { workerLoop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// Runs fn(0) .. fn(count-1) across the workers; returns when all have.
  /// If any call throws, the first exception (in completion order) is
  /// rethrown here after the whole batch has drained.
  void parallelFor(size_t count, const std::function<void(size_t)>& fn) {
    if (count == 0) return;
    if (workers_.empty() || count == 1) {
      for (size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    std::mutex doneMu;
    std::condition_variable doneCv;
    size_t done = 0;
    std::exception_ptr firstError;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < count; ++i)
        queue_.push_back([&, i] {
          std::exception_ptr error;
          try {
            fn(i);
          } catch (...) {
            error = std::current_exception();
          }
          // Notify under the lock: once the caller sees done == count it
          // returns and destroys doneCv, so no task may touch it after
          // releasing doneMu.
          std::lock_guard<std::mutex> dl(doneMu);
          ++done;
          if (error != nullptr && firstError == nullptr) firstError = error;
          doneCv.notify_one();
        });
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> dl(doneMu);
    doneCv.wait(dl, [&] { return done == count; });
    if (firstError != nullptr) std::rethrow_exception(firstError);
  }

 private:
  void workerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace ifko::search::detail
