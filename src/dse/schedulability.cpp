#include "dse/schedulability.hpp"

#include <algorithm>
#include <numeric>

#include "dse/admission.hpp"

namespace dynaplat::dse {

std::vector<AnalysisTask> tasks_on(const model::AppDef& app,
                                   std::uint64_t mips) {
  std::vector<AnalysisTask> out;
  for (const auto& task : app.tasks) {
    AnalysisTask at;
    at.name = app.name + "." + task.name;
    at.period = task.period;
    at.deadline = task.deadline > 0 ? task.deadline : task.period;
    at.wcet = static_cast<sim::Duration>(task.instructions * 1000ull / mips);
    at.priority = task.priority;
    at.deterministic = app.app_class == model::AppClass::kDeterministic;
    out.push_back(std::move(at));
  }
  return out;
}

std::optional<std::vector<sim::Duration>> response_time_analysis(
    const std::vector<AnalysisTask>& tasks) {
  std::vector<sim::Duration> response(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const AnalysisTask& task = tasks[i];
    if (task.period <= 0) continue;  // aperiodic: not covered by RTA
    sim::Duration r = task.wcet;
    for (int iteration = 0; iteration < 1000; ++iteration) {
      sim::Duration interference = 0;
      for (std::size_t h = 0; h < tasks.size(); ++h) {
        const AnalysisTask& other = tasks[h];
        if (h == i || other.period <= 0 || other.priority > task.priority) {
          continue;
        }
        const sim::Duration jobs =
            (r + other.period - 1) / other.period;  // ceil(r / T_h)
        interference += jobs * other.wcet;
      }
      const sim::Duration next = task.wcet + interference;
      if (next == r) break;
      r = next;
      if (r > task.deadline) return std::nullopt;
    }
    if (r > task.deadline) return std::nullopt;
    response[i] = r;
  }
  return response;
}

double TtTable::reserved_fraction() const {
  if (cycle <= 0) return 0.0;
  sim::Duration reserved = 0;
  for (const auto& w : windows) reserved += w.length;
  return static_cast<double>(reserved) / static_cast<double>(cycle);
}

sim::Duration hyperperiod(const std::vector<AnalysisTask>& tasks,
                          sim::Duration cap) {
  sim::Duration lcm = 1;
  for (const auto& task : tasks) {
    if (task.period <= 0) continue;
    lcm = std::lcm(lcm, task.period);
    if (lcm > cap || lcm <= 0) return cap;
  }
  return lcm;
}

std::optional<TtTable> synthesize_tt_table(
    const std::vector<AnalysisTask>& tasks, sim::Duration granularity,
    sim::Duration window_padding) {
  std::vector<std::size_t> det;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].deterministic && tasks[i].period > 0) det.push_back(i);
  }
  TtTable table;
  if (det.empty()) {
    table.cycle = sim::kMillisecond;
    return table;
  }
  std::vector<AnalysisTask> dts;
  for (std::size_t i : det) dts.push_back(tasks[i]);
  const sim::Duration cycle = hyperperiod(dts);
  table.cycle = cycle;

  // Collect every job in the hyperperiod: (release, deadline, task idx).
  struct Job {
    sim::Time release;
    sim::Time deadline;
    std::size_t task;
  };
  std::vector<Job> jobs;
  for (std::size_t i : det) {
    const auto& task = tasks[i];
    for (sim::Time release = 0; release < cycle; release += task.period) {
      jobs.push_back(Job{release, release + task.deadline, i});
    }
  }
  // EDF order gives the classic optimal placement heuristic.
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.release < b.release;
  });

  // Free list of intervals, initially the whole cycle.
  struct Interval {
    sim::Time begin;
    sim::Time end;
  };
  std::vector<Interval> free{{0, cycle}};

  auto align = [granularity](sim::Time t) {
    if (granularity <= 0) return t;
    return ((t + granularity - 1) / granularity) * granularity;
  };

  for (const Job& job : jobs) {
    const sim::Duration wcet = tasks[job.task].wcet + window_padding;
    bool placed = false;
    for (std::size_t f = 0; f < free.size(); ++f) {
      const sim::Time start =
          align(std::max(free[f].begin, job.release));
      if (start + wcet > free[f].end) continue;
      if (start + wcet > job.deadline) continue;
      table.windows.push_back(
          TtTable::Window{start, wcet, job.task});
      // Split the free interval.
      const Interval before{free[f].begin, start};
      const Interval after{start + wcet, free[f].end};
      free.erase(free.begin() + static_cast<long>(f));
      if (after.end > after.begin) {
        free.insert(free.begin() + static_cast<long>(f), after);
      }
      if (before.end > before.begin) {
        free.insert(free.begin() + static_cast<long>(f), before);
      }
      placed = true;
      break;
    }
    if (!placed) return std::nullopt;
  }
  std::sort(table.windows.begin(), table.windows.end(),
            [](const TtTable::Window& a, const TtTable::Window& b) {
              return a.offset < b.offset;
            });
  return table;
}

model::Verifier::SchedulabilityHook make_verifier_hook() {
  return [](const model::EcuDef& ecu,
            const std::vector<const model::AppDef*>& apps, std::string* why) {
    // Partitioned multicore: first-fit-decreasing apps onto cores, each
    // placement asking the admission test node install runs. Install packs
    // first-fit in install order instead, so on a multicore ECU the two
    // can still choose different cores.
    const auto cores = static_cast<std::size_t>(std::max(1, ecu.cores));
    std::vector<const model::AppDef*> order = apps;
    std::sort(order.begin(), order.end(),
              [&](const model::AppDef* a, const model::AppDef* b) {
                return a->utilization_on(ecu.mips) >
                       b->utilization_on(ecu.mips);
              });
    std::vector<std::vector<AnalysisTask>> per_core(cores);
    for (const model::AppDef* app : order) {
      const auto app_tasks = tasks_on(*app, ecu.mips);
      bool placed = false;
      for (auto& core_tasks : per_core) {
        if (admit(core_tasks, app_tasks).admitted) {
          core_tasks.insert(core_tasks.end(), app_tasks.begin(),
                            app_tasks.end());
          placed = true;
          break;
        }
      }
      if (!placed) {
        if (why != nullptr) {
          *why = "app '" + app->name + "' fits no core of " + ecu.name;
        }
        return false;
      }
    }
    return true;
  };
}

}  // namespace dynaplat::dse
