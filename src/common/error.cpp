#include "common/error.h"

namespace tca {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kOutOfRange: return "OUT_OF_RANGE";
    case ErrorCode::kUnaligned: return "UNALIGNED";
    case ErrorCode::kPermissionDenied: return "PERMISSION_DENIED";
    case ErrorCode::kUnreachable: return "UNREACHABLE";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kNotPinned: return "NOT_PINNED";
    case ErrorCode::kBusy: return "BUSY";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kTimedOut: return "TIMED_OUT";
    case ErrorCode::kLinkDown: return "LINK_DOWN";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string out = tca::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void assert_fail(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "TCA_ASSERT failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

void value_of_error(const Status& status) {
  std::fprintf(stderr, "Result::value() on an error: %s\n",
               status.to_string().c_str());
  std::abort();
}

Status write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return {ErrorCode::kInvalidArgument, "cannot open " + path};
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    return {ErrorCode::kInternal, "failed to write " + path};
  }
  return Status::ok();
}

}  // namespace tca
