// Lightweight runtime assertion macros used across the library.
//
// The library does not use exceptions; contract violations abort with a
// diagnostic. FM_CHECK is always on (including release builds) because the
// assignment pipeline is a correctness-critical decision system; the cost of
// the checks is negligible next to shortest-path computation.
#ifndef FOODMATCH_COMMON_CHECK_H_
#define FOODMATCH_COMMON_CHECK_H_

#include <sstream>
#include <string>

namespace fm::internal {

// Aborts the process after flushing stdout and printing `file:line: message`
// to stderr.
[[noreturn]] void CheckFailed(const char* file, int line, const std::string& message);

}  // namespace fm::internal

#define FM_CHECK(cond)                                                      \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::fm::internal::CheckFailed(__FILE__, __LINE__,                       \
                                  "FM_CHECK failed: " #cond);               \
    }                                                                       \
  } while (0)

#define FM_CHECK_MSG(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream fm_check_oss_;                                     \
      fm_check_oss_ << "FM_CHECK failed: " #cond << " — " << msg;           \
      ::fm::internal::CheckFailed(__FILE__, __LINE__, fm_check_oss_.str()); \
    }                                                                       \
  } while (0)

#define FM_CHECK_OP(op, a, b)                                               \
  do {                                                                      \
    if (!((a)op(b))) {                                                      \
      std::ostringstream fm_check_oss_;                                     \
      fm_check_oss_ << "FM_CHECK failed: " #a " " #op " " #b << " (" << (a) \
                    << " vs " << (b) << ")";                                \
      ::fm::internal::CheckFailed(__FILE__, __LINE__, fm_check_oss_.str()); \
    }                                                                       \
  } while (0)

#define FM_CHECK_EQ(a, b) FM_CHECK_OP(==, a, b)
#define FM_CHECK_NE(a, b) FM_CHECK_OP(!=, a, b)
#define FM_CHECK_LT(a, b) FM_CHECK_OP(<, a, b)
#define FM_CHECK_LE(a, b) FM_CHECK_OP(<=, a, b)
#define FM_CHECK_GT(a, b) FM_CHECK_OP(>, a, b)
#define FM_CHECK_GE(a, b) FM_CHECK_OP(>=, a, b)

#endif  // FOODMATCH_COMMON_CHECK_H_
