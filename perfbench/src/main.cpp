// Source-to-verdict benchmark: times the checker the way it is used, from
// MiniHPC source text through driver::compile and Executor::run to a
// verdict, on three workloads, and checks every verdict against its known
// answer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// Set-up (generating the programs from the seed plus one warm-up pass) is
// repeated kSetups times and reported as its median. Then whole passes run
// until S seconds have elapsed; each end-to-end metric is the median over
// the passes. --trace 1 runs traced passes instead and reports the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include "bench.h"

#include "support/str.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kSetups = 5;
/// Passes every run makes at least, however short --seconds is.
constexpr size_t kMinPasses = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's own size is not in it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // the line reads in kB
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(parcoach::str::cat("missing value for ", flag));
    const std::string value = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        continue;
      }
      const long long n = std::stoll(value, &used);
      if (used != value.size() || n < 0) throw std::invalid_argument(value);
      if (flag == "--seed") {
        a.seed = static_cast<uint64_t>(n);
      } else if (flag == "--seconds") {
        if (n < 1 || n > 120) usage("--seconds must be within 1..120");
        a.seconds = static_cast<int>(n);
      } else if (flag == "--trace") {
        if (n > 1) usage("--trace must be 0 or 1");
        a.trace = n == 1;
      } else {
        usage(parcoach::str::cat("unknown flag ", flag));
      }
    } catch (const std::logic_error&) {
      usage(parcoach::str::cat("bad value '", value, "' for ", flag));
    }
  }
  if (!a.self_test) {
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
      usage(parcoach::str::cat("unknown workload '", a.workload, "'"));
  }
  return a;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void report(const std::string& workload, size_t passes, const Runner& r,
            const std::vector<Metric>& metrics) {
  std::printf("workload %s: %zu passes, attempted %llu, failed %llu, correct %s\n",
              workload.c_str(), passes, static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()),
              r.correct() ? "yes" : "no");
  for (const auto& m : metrics)
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_benchmark(const Args& args) {
  std::unique_ptr<Runner> runner;
  std::vector<double> setup;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    runner = std::make_unique<Runner>(make_workload(args.workload, args.seed));
    (void)runner->pass();
    setup.push_back(seconds_since(t0));
  }

  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  std::vector<Metric> metrics;
  size_t passes = 0;
  if (args.trace) {
    std::map<std::string, std::vector<double>> samples;
    for (; passes < kMinPasses || Clock::now() < deadline; ++passes)
      for (const auto& [name, v] : runner->traced_pass()) samples[name].push_back(v);
    for (const auto& [name, unit] : layer_metrics())
      metrics.push_back({name, unit, median(samples[name])});
  } else {
    std::vector<double> analyze, exec, unchecked, verdict, deadlock;
    for (; passes < kMinPasses || Clock::now() < deadline; ++passes) {
      const PassTimes t = runner->pass();
      analyze.push_back(t.analyze);
      exec.push_back(t.exec);
      unchecked.push_back(t.unchecked);
      verdict.push_back(t.analyze + t.exec);
      deadlock.push_back(t.deadlock);
    }
    metrics = {{"setup_s", "s", median(setup)},
               {"analyze_s", "s", median(analyze)},
               {"exec_s", "s", median(exec)},
               {"exec_unchecked_s", "s", median(unchecked)},
               {"verdict_s", "s", median(verdict)},
               {"deadlock_verdict_s", "s", median(deadlock)},
               {"peak_rss_mb", "MB", peak_rss_mb()}};
  }
  report(args.workload, passes, *runner, metrics);
  return 0;
}

} // namespace

// ---- Runner ----------------------------------------------------------------------

std::unique_ptr<Compiled> compile_item(const Item& item,
                                       const parcoach::driver::PipelineOptions& opts) {
  auto c = std::make_unique<Compiled>();
  c->r = parcoach::driver::compile(c->sm, item.name, item.source, c->diags, opts);
  return c;
}

Runner::Runner(Workload wl) : wl_(std::move(wl)) {}

std::unique_ptr<Compiled> Runner::compile_timed(size_t i, double& seconds) {
  const auto t0 = Clock::now();
  auto c = compile_item(wl_.items[i]);
  seconds = seconds_since(t0);
  if (c->r.ok) return c;
  ++failed_;
  std::cerr << "perfbench: " << wl_.name << "/" << wl_.items[i].name
            << " failed to compile\n";
  return nullptr;
}

Observed Runner::run(const Compiled& c, const Item& item, bool checked,
                     double& seconds) {
  parcoach::interp::Executor exec(c.r.program, c.sm, checked ? &c.r.plan : nullptr);
  const auto opts = exec_options(item);
  const auto t0 = Clock::now();
  const auto result = exec.run(opts);
  seconds += seconds_since(t0);
  return observe(result);
}

void Runner::check(const Item& item, const std::string& problem) {
  if (problem.empty()) return;
  if (reported_.insert(item.name).second) // one message per program
    std::cerr << "perfbench: " << wl_.name << "/" << item.name
              << " contradicts its known answer: " << problem << "\n";
  correct_ = false;
}

void Runner::check_item(size_t i, PassTimes& t) {
  const Item& it = wl_.items[i];
  double compile_s = 0;
  const auto c = compile_timed(i, compile_s);
  if (it.role == Role::Static || it.role == Role::Verdict) t.analyze += compile_s;
  if (it.role == Role::Watchdog) t.deadlock += compile_s;
  if (!c) return;
  check(it, check_static(c->r, c->diags, it.st));
  if (it.role == Role::Static) return;

  double run_s = 0;
  const Observed checked = run(*c, it, /*checked=*/true, run_s);
  check(it, check_run(checked, it.run));
  if (it.role == Role::Watchdog) {
    t.deadlock += run_s;
    return;
  }
  t.exec += run_s;
  if (it.unchecked) {
    // Selective checks never change a clean program's output.
    Expect plain;
    plain.has_output = true;
    plain.output = it.run.has_output ? it.run.output : checked.output;
    check(it, check_run(run(*c, it, /*checked=*/false, t.unchecked), plain));
  }
}

void Runner::check_taint(const Item& item) {
  parcoach::driver::PipelineOptions taint;
  taint.algorithm1.rank_taint_filter = true;
  const auto c = compile_item(item, taint);
  check(item, check_static(c->r, c->diags,
                           {{}, {parcoach::DiagKind::CollectiveMismatch}, false}));
}

PassTimes Runner::pass() {
  PassTimes t;
  std::vector<bool> threw(wl_.items.size(), false);
  auto guarded = [&](size_t i, auto&& step) {
    if (threw[i]) return;
    try {
      step();
    } catch (const std::exception& e) {
      threw[i] = true;
      ++failed_;
      std::cerr << "perfbench: " << wl_.name << "/" << wl_.items[i].name
                << " threw: " << e.what() << "\n";
    }
  };
  for (size_t i = 0; i < wl_.items.size(); ++i) {
    ++attempted_;
    guarded(i, [&] { check_item(i, t); });
  }
  // The rank-taint compiles come after the timed work: run between two timed
  // compiles, the memory they free slows the next compile by a quarter.
  for (size_t i = 0; i < wl_.items.size(); ++i)
    if (wl_.items[i].taint_clean) guarded(i, [&] { check_taint(wl_.items[i]); });
  return t;
}

} // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (const int misjudged = perfbench::self_test(); misjudged != 0) {
    std::cerr << "perfbench: " << misjudged << " checker self-test case(s) failed\n";
    return 1;
  }
  if (args.self_test) {
    std::cout << "perfbench: checker self-test passed\n";
    return 0;
  }
  try {
    return perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
