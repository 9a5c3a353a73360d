// Shared declarations of the source-to-verdict benchmark.
//
// A workload is a list of items. Each item is one MiniHPC program with its
// known answer: the static warnings it must (not) raise, the verdict of its
// checked run and, where a closed form exists, its printed output. One pass
// takes every item of the workload from source text to verdict once; the
// harness times whole passes and reports medians.
#pragma once

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/diagnostics.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Known answers (checks.cpp) ---------------------------------------------

/// The verdict a checked run must reach.
enum class Verdict : uint8_t {
  Clean,         // no deadlock, no abort, no runtime error
  Caught,        // runtime error of Expect::rt_kind, never a deadlock
  CleanOrCaught, // as Caught, or clean when the faulty site is unreachable
  Deadlock,      // the watchdog reports the hang, naming Expect::mentions
};

struct Expect {
  Verdict verdict = Verdict::Clean;
  parcoach::DiagKind rt_kind = parcoach::DiagKind::RtCollectiveMismatch;
  /// Sorted print() lines the run must produce; checked only when
  /// `has_output` is set.
  bool has_output = false;
  std::vector<std::string> output;
  /// Substrings the watchdog's deadlock report must contain.
  std::vector<std::string> mentions;
};

/// What one run showed, reduced to the facts the checks look at.
struct Observed {
  bool clean = false;
  bool deadlock = false;
  std::string deadlock_details;
  std::vector<parcoach::DiagKind> rt_errors; // error-severity rt diagnostics
  std::vector<std::string> output;
};

[[nodiscard]] Observed observe(const parcoach::interp::ExecResult& r);

/// Empty when the run holds to its known answer, else the reason it does not.
[[nodiscard]] std::string check_run(const Observed& got, const Expect& want);

struct StaticExpect {
  std::vector<parcoach::DiagKind> required;  // each reported at least once
  std::vector<parcoach::DiagKind> forbidden; // none reported
  /// The plan must arm CC somewhere and place the exit sentinel in main.
  bool cc_armed = false;
};

/// Empty when the compile holds to its known answer, else the reason. Also
/// checks that every communicator class Algorithm 1 flags is armed.
[[nodiscard]] std::string check_static(const parcoach::driver::CompileResult& r,
                                       const parcoach::DiagnosticEngine& diags,
                                       const StaticExpect& want);

/// Closed forms of the generated suites' output on `ranks` ranks, sorted as
/// ExecResult::output is. NPB-MZ (all three variants) prints
/// global_res = (R-1)*31 + niter, rms = sum_r (r*31 + niter) and
/// t_max = 3*niter + R - 1; EPCC prints R * sum_{i<100} (i mod 13); HERA
/// prints its io_dump total every fifth step and the final land-reduction.
[[nodiscard]] std::vector<std::string> npb_answer(int64_t ranks, int64_t niter);
[[nodiscard]] std::vector<std::string> epcc_answer(int64_t ranks);
[[nodiscard]] std::vector<std::string> hera_answer(int64_t ranks, int64_t steps);

/// Feeds every checker a right and a wrong answer; returns the number of
/// checker cases that misjudged (0 = all checkers work).
[[nodiscard]] int self_test();

// ---- Workloads (workloads.cpp) ----------------------------------------------

enum class Role : uint8_t {
  Static,   // compiled every pass (analyze_s); never run
  Verdict,  // compiled (analyze_s) and run checked (exec_s) every pass
  RunOnly,  // compiled untimed and run checked (exec_s) every pass
  Watchdog, // compiled and run every pass; only the watchdog can decide it
};

struct Item {
  std::string name;
  std::string source;
  Role role = Role::Verdict;
  StaticExpect st;
  Expect run;
  /// Also run with no plan every pass (exec_unchecked_s); that run must be
  /// clean and print what the checked run must print.
  bool unchecked = false;
  int32_t ranks = 2;
  int32_t threads = 2;
  /// Also compile with the rank-taint refinement and require zero
  /// collective-mismatch warnings.
  bool taint_clean = false;
};

struct Workload {
  std::string name;
  std::vector<Item> items;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds `name`'s items from `seed`; the same seed gives the same items.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, uint64_t seed);

/// Hang timeout of watchdog items: fixed, so deadlock_verdict_s measures the
/// same wait on every commit.
inline constexpr std::chrono::milliseconds kWatchdogHang{100};
/// Hang timeout of every other run: far above any compute phase between two
/// collectives, so a slow machine never turns a clean run into a deadlock.
inline constexpr std::chrono::milliseconds kRunHang{2000};

/// Run options for `item`: its rank and thread counts and hang timeout.
[[nodiscard]] parcoach::interp::ExecOptions exec_options(const Item& item);

// ---- Passes (main.cpp, layers.cpp) --------------------------------------------

/// One compiled program; the SourceManager outlives every Executor built on
/// the result.
struct Compiled {
  parcoach::SourceManager sm;
  parcoach::DiagnosticEngine diags;
  parcoach::driver::CompileResult r;
};

[[nodiscard]] std::unique_ptr<Compiled>
compile_item(const Item& item, const parcoach::driver::PipelineOptions& opts = {});

/// Per-pass seconds of the end-to-end metrics.
struct PassTimes {
  double analyze = 0;   // driver::compile of Static and Verdict items
  double exec = 0;      // checked runs of Verdict and RunOnly items
  double unchecked = 0; // runs with no plan
  double deadlock = 0;  // compile and run of Watchdog items
};

/// Takes a workload through whole passes and keeps the operation census:
/// one operation is one item's verdict. An operation fails when it yields no
/// verdict (a compile error or an exception); a verdict that contradicts the
/// known answer clears `correct`.
class Runner {
public:
  explicit Runner(Workload wl);

  /// One untraced pass over every item, with every check.
  PassTimes pass();
  /// One traced pass: each static stage called on its own, traced runs, and
  /// the per-call probes; returns the per-layer samples by metric name.
  std::map<std::string, double> traced_pass();

  [[nodiscard]] uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }

private:
  /// A fresh driver::compile of item `i`, timed into `seconds`; null (and
  /// counted as a failed operation) when it failed.
  std::unique_ptr<Compiled> compile_timed(size_t i, double& seconds);
  Observed run(const Compiled& c, const Item& item, bool checked,
               double& seconds);
  void check(const Item& item, const std::string& problem);
  void check_item(size_t i, PassTimes& t);
  void check_taint(const Item& item);

  Workload wl_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::set<std::string> reported_; // items whose problem was printed
};

/// Per-layer metric names and units, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metrics();

} // namespace perfbench
