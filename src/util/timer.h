#ifndef BANKS_UTIL_TIMER_H_
#define BANKS_UTIL_TIMER_H_

#include <chrono>

namespace banks {

/// Monotonic wall-clock stopwatch used by the search metrics and benches.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace banks

#endif  // BANKS_UTIL_TIMER_H_
