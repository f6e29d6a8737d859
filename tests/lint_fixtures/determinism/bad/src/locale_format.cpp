// Fixture: doubles printed through printf float conversions (bad twin).
#include <cstdio>

void print_report(double utilization, double batch_time) {
  std::printf("%5.1f%% utilization\n", 100.0 * utilization);
  std::printf("batch %.17g s\n", batch_time);
  std::printf("100%%%.2e\n", batch_time);  // "%%" then a real "%.2e"
}
