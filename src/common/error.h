// Lightweight error handling for the simulator.
//
// Configuration and protocol errors are reported through Status/Result rather
// than exceptions: the simulator is also used from benchmark harnesses that
// want to probe invalid configurations without unwinding, and the C++ Core
// Guidelines (E.2/E.3) reserve exceptions for truly exceptional conditions.
// Programming errors (broken invariants inside the engine) use TCA_ASSERT,
// which aborts with a message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace tca {

/// Error categories used across the library.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kUnaligned,
  kPermissionDenied,  ///< e.g. remote read on a put-only fabric
  kUnreachable,       ///< no route to the destination address
  kResourceExhausted, ///< descriptor slots, tags, buffer space
  kNotPinned,         ///< GPUDirect access to an unpinned page
  kBusy,              ///< DMA channel already active
  kInternal,
  kTimedOut,          ///< completion/chain deadline expired
  kLinkDown,          ///< port dead: TLPs held in the replay buffer
};

/// Number of ErrorCode values. Keep in sync with the enum above; the
/// common_test round-trips every value in [0, kErrorCodeCount) through
/// to_string so a new code cannot ship unnamed.
inline constexpr int kErrorCodeCount =
    static_cast<int>(ErrorCode::kLinkDown) + 1;

const char* to_string(ErrorCode code);

/// A status: either OK or an error code plus a human-readable message.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Full "CODE: message" rendering for logs and test failures.
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);
[[noreturn]] void value_of_error(const Status& status);

/// A value or a Status. Minimal expected<>-style type; the simulator does not
/// need monadic composition, just explicit checking at call sites.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// The value; aborts with the status, in every build type, on an error.
  [[nodiscard]] T& value() & { return (check(), *value_); }
  [[nodiscard]] const T& value() const& { return (check(), *value_); }
  [[nodiscard]] T&& value() && { return (check(), *std::move(value_)); }

 private:
  void check() const {
    if (!value_.has_value()) value_of_error(status_);
  }

  std::optional<T> value_;
  Status status_;
};

/// Writes `text` to the file at `path`, replacing it. Fails if the file
/// cannot be opened, or if the write or the close (where buffered output
/// reaches the file) fails.
Status write_file(const std::string& path, std::string_view text);

}  // namespace tca

/// Engine-invariant assertion: active in all build types because simulator
/// correctness is the product.
#define TCA_ASSERT(expr) \
  ((expr) ? static_cast<void>(0) : ::tca::assert_fail(#expr, __FILE__, __LINE__))
