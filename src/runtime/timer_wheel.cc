#include "runtime/timer_wheel.h"

#include <memory>
#include <utility>

namespace esr::runtime {

TimerWheel::TimerWheel(Executor* executor)
    : executor_(executor), epoch_(std::chrono::steady_clock::now()) {}

TimerWheel::~TimerWheel() { Stop(); }

SimTime TimerWheel::NowInternal() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SimTime TimerWheel::Now() const { return NowInternal(); }

void TimerWheel::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || stop_) return;
  running_ = true;
  thread_ = std::thread([this] { Run(); });
}

void TimerWheel::Stop() {
  std::thread joinme;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    fns_.clear();
    joinme = std::move(thread_);
  }
  cv_.notify_all();
  if (joinme.joinable()) joinme.join();
}

TimerId TimerWheel::Schedule(SimDuration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(NowInternal() + delay, std::move(fn));
}

TimerId TimerWheel::ScheduleAt(SimTime when, std::function<void()> fn) {
  TimerId id;
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return 0;
    id = next_id_++;
    fns_.emplace(id, std::move(fn));
    // The timer thread sleeps until the heap top's deadline (or, with an
    // empty heap, indefinitely) and re-reads the heap when it wakes, so
    // only a new earliest deadline needs to wake it. A top that was
    // cancelled still bounds the sleep, so comparing against it is safe.
    earliest = queue_.empty() || when < queue_.top().when;
    queue_.push(Entry{when, id});
  }
  if (earliest) cv_.notify_one();
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return fns_.erase(id) > 0;
}

void TimerWheel::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Lazily discard heap tops whose callback is gone (cancelled or run).
    while (!queue_.empty() && fns_.find(queue_.top().id) == fns_.end()) {
      queue_.pop();
    }
    if (queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const Entry top = queue_.top();
    const SimTime now = NowInternal();
    if (top.when > now) {
      cv_.wait_until(lock,
                     epoch_ + std::chrono::microseconds(top.when));
      continue;  // re-evaluate: new earlier timer, cancel, or stop
    }
    queue_.pop();
    if (fns_.find(top.id) == fns_.end()) continue;
    // Post a thunk that claims the callback at execution time: if Cancel()
    // erases it first, the thunk finds nothing and the cancel guarantee
    // holds even though the timer had already expired. Posted unlocked so
    // the wheel's mutex never nests inside the executor's.
    const TimerId id = top.id;
    lock.unlock();
    executor_->Post([this, id] {
      std::function<void()> fn;
      {
        std::lock_guard<std::mutex> inner(mu_);
        auto it = fns_.find(id);
        if (it == fns_.end()) return;
        fn = std::move(it->second);
        fns_.erase(it);
      }
      fn();
    });
    lock.lock();
  }
}

}  // namespace esr::runtime
