#include "minispark/metrics.hpp"

#include <algorithm>
#include <queue>

namespace sdb::minispark {

BalanceStats balance_stats(const JobMetrics& job) {
  BalanceStats stats;
  if (job.tasks.empty()) return stats;
  stats.min_task_s = job.tasks.front().sim_s;
  double total = 0.0;
  for (const TaskMetrics& t : job.tasks) {
    stats.min_task_s = std::min(stats.min_task_s, t.sim_s);
    stats.max_task_s = std::max(stats.max_task_s, t.sim_s);
    total += t.sim_s;
  }
  stats.mean_task_s = total / static_cast<double>(job.tasks.size());
  return stats;
}

std::vector<ScheduledTask> list_schedule(const std::vector<double>& durations,
                                         u32 cores) {
  SDB_CHECK(cores > 0, "need at least one core");
  // Min-heap of (free time, core id); core id breaks ties deterministically.
  using Slot = std::pair<double, u32>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (u32 c = 0; c < cores; ++c) free_at.emplace(0.0, c);
  std::vector<ScheduledTask> schedule;
  schedule.reserve(durations.size());
  for (u32 t = 0; t < durations.size(); ++t) {
    const auto [start, core] = free_at.top();
    free_at.pop();
    const double end = start + durations[t];
    free_at.emplace(end, core);
    schedule.push_back(ScheduledTask{t, core, start, end});
  }
  return schedule;
}

double list_schedule_makespan(const std::vector<double>& durations, u32 cores) {
  double makespan = 0.0;
  for (const ScheduledTask& t : list_schedule(durations, cores)) {
    makespan = std::max(makespan, t.end_s);
  }
  return makespan;
}

std::string render_gantt(const std::vector<ScheduledTask>& schedule,
                         u32 cores, int width) {
  SDB_CHECK(width > 8, "gantt width too small");
  double makespan = 0.0;
  for (const ScheduledTask& t : schedule) {
    makespan = std::max(makespan, t.end_s);
  }
  std::string out;
  if (makespan <= 0.0) return out;
  const double per_col = makespan / width;
  for (u32 c = 0; c < cores; ++c) {
    std::string row(static_cast<size_t>(width), '.');
    for (const ScheduledTask& t : schedule) {
      if (t.core != c) continue;
      auto col0 = static_cast<int>(t.start_s / per_col);
      auto col1 = static_cast<int>(t.end_s / per_col);
      col0 = std::min(col0, width - 1);
      col1 = std::min(std::max(col1, col0 + 1), width);
      const char glyph = static_cast<char>('0' + t.task % 10);
      for (int col = col0; col < col1; ++col) {
        row[static_cast<size_t>(col)] = glyph;
      }
    }
    char label[32];
    std::snprintf(label, sizeof(label), "core %3u |", c);
    out += label + row + "|\n";
  }
  return out;
}

}  // namespace sdb::minispark
