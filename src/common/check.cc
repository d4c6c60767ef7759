#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace fm::internal {

void CheckFailed(const char* file, int line, const std::string& message) {
  // abort() does not flush stdio: keep what the program already printed,
  // and print it before the diagnostic.
  std::fflush(stdout);
  std::fprintf(stderr, "%s:%d: %s\n", file, line, message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace fm::internal
