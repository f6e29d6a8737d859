// Fixture: integer and string printf conversions only (good twin). The
// doubles would go through the to_chars formatter, e.g. "%.2f" in a
// comment is not a format.
#include <cstdio>

void print_counts(int hits, const char* name, double share) {
  std::printf("%d hits, %5s%% share\n", hits, name);
  std::printf("%zu bytes, 100%%f\n", sizeof share);
  const char percent = '%';
  std::printf("%c\n", percent);
  std::puts("50% full, 5% error");  // prose, not a "% f" or "% e"
}
