// Cooperative cancellation for long-running work.
//
// A CancelToken is a one-shot, thread-safe flag with a cause.  The owner
// (a watchdog deadline, a signal handler, a test) cancels it; the worker
// (the simulation engines, the experiment runner's test hooks) polls it at
// loop boundaries and aborts by throwing CancelledError.  The first cancel
// wins: a token cancelled for kTimeout stays a timeout even if a shutdown
// lands later, so failure causes recorded in run journals are unambiguous.
//
// Cancellation is strictly cooperative — nothing is interrupted
// asynchronously — which is what keeps it safe to use under sanitizers
// and inside deterministic engines: a run that is never polled simply
// finishes, and a cancelled run unwinds through ordinary C++ exceptions.
//
// cancel() is async-signal-safe (a single atomic store-like CAS), so
// signal handlers may cancel tokens directly.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace abg::util {

/// Why a token was cancelled.  kNone means "not cancelled".
enum class CancelCause : int {
  kNone = 0,
  /// A watchdog deadline expired.
  kTimeout = 1,
  /// An orderly shutdown (SIGINT/SIGTERM drain) was requested.
  kShutdown = 2,
};

/// One-shot cancellation flag with a cause.  Thread-safe; the first
/// cancel() fixes the cause, later calls are no-ops.
class CancelToken {
 public:
  /// Requests cancellation.  Async-signal-safe; first caller wins.
  void cancel(CancelCause cause) {
    int expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  }

  /// True once cancel() has been called.
  bool cancelled() const {
    return cause_.load(std::memory_order_acquire) !=
           static_cast<int>(CancelCause::kNone);
  }

  /// The winning cause; kNone while not cancelled.
  CancelCause cause() const {
    return static_cast<CancelCause>(cause_.load(std::memory_order_acquire));
  }

  /// Re-arms the token (between retry attempts of the same run).  Must not
  /// race cancel(); the experiment runner resets only while the run is not
  /// registered with any watchdog.
  void reset() {
    cause_.store(static_cast<int>(CancelCause::kNone),
                 std::memory_order_release);
  }

 private:
  std::atomic<int> cause_{0};
};

/// Canonical short name of a cause ("timeout" / "shutdown"), used in run
/// journals and diagnostics.
inline const char* to_string(CancelCause cause) {
  switch (cause) {
    case CancelCause::kTimeout:
      return "timeout";
    case CancelCause::kShutdown:
      return "shutdown";
    case CancelCause::kNone:
      break;
  }
  return "none";
}

/// Thrown by cancellation poll sites when their token fired.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(const std::string& what, CancelCause cause)
      : std::runtime_error(what), cause_(cause) {}

  CancelCause cause() const { return cause_; }

 private:
  CancelCause cause_;
};

/// Poll site of a run loop: throws "<context>: run cancelled (<cause>)"
/// when `token` is set and has fired.  A null token costs one test.
inline void throw_if_cancelled(const CancelToken* token, const char* context) {
  if (token != nullptr && token->cancelled()) {
    throw CancelledError(std::string(context) + ": run cancelled (" +
                             to_string(token->cause()) + ")",
                         token->cause());
  }
}

}  // namespace abg::util
