// The benchmark's three workloads, built from a seed.
//
//   fig1_static    the paper's Figure-1 compile-overhead experiment: the five
//                  figure1_suite() subjects at paper scale through
//                  driver::compile. Their run-scale twins (same generators
//                  and code-shaping parameters, two threads, one time step)
//                  are run every pass, so the workload also reports the run
//                  metrics; their compiles are not timed.
//   hybrid_run     BT-MZ with per-zone communicators at two seeded iteration
//                  counts of constant sum, plus the EPCC suite, each run under
//                  its selective plan and with no plan: VM dispatch, team
//                  fork/join, park/wake and the CC lane do the work.
//   verdict_sweep  every corpus entry that fits the thread budget plus a
//                  seeded testgen batch (clean and mutated programs), each
//                  from source text to verdict in a fresh World: world
//                  set-up, the watchdog and the abort paths do the work.
//
// Every workload also carries the corpus programs only the watchdog can
// decide (today comm_cross_deadlock), timed apart as deadlock_verdict_s.
//
// The order of the programs is fixed: it moves the compile and run times by
// up to a tenth (the heap and caches each program leaves behind differ), so
// a seeded order would add that much spread between seeds. fig1_static's
// inputs are the paper's fixed suite, so its seed changes nothing.
//
// Thread budget: no run uses more than 2 ranks x 2 OpenMP threads, so corpus
// entries that ask for larger teams, nest parallel regions, or whose verdict
// depends on the scheduler (CaughtRace, ThreadLevelWarn) are left out.
#include "bench.h"

#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/testgen.h"
#include "workloads/workloads.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace pw = parcoach::workloads;
using parcoach::DiagKind;

namespace {

constexpr int32_t kRanks = 2;
constexpr int32_t kThreads = 2;

/// hybrid_run: BT-MZ iteration counts a and kBtSteps - a, a drawn from the
/// seed, so every seed does the same work with different closed forms.
constexpr int32_t kBtSteps = 8;
constexpr int32_t kBtZones = 8;
constexpr int32_t kBtStages = 2;
constexpr int32_t kEpccReps = 6;
constexpr int32_t kEpccSizes = 4;
/// verdict_sweep: testgen programs per pass (a multiple of 4: clean,
/// RankGuard, KindDivergence and EarlyExit in turn), each drawn with
/// [kTestgenMinLines, kTestgenMaxLines) code lines so that the batch's
/// compile work hardly depends on the seed (about 40% of draws qualify).
constexpr int32_t kTestgenPrograms = 24;
constexpr size_t kTestgenMinLines = 60;
constexpr size_t kTestgenMaxLines = 80;

struct SplitMix {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

const StaticExpect kHybridClean{
    {},
    {DiagKind::MultithreadedCollective, DiagKind::ConcurrentCollectives,
     DiagKind::ThreadLevelViolation},
    false};

Expect clean_with(std::vector<std::string> output) {
  Expect e;
  e.has_output = true;
  e.output = std::move(output);
  return e;
}

Item runnable(pw::GeneratedProgram g, Role role, Expect run) {
  Item it;
  it.name = std::move(g.name);
  it.source = std::move(g.source);
  it.role = role;
  it.st = kHybridClean;
  it.run = std::move(run);
  it.unchecked = true;
  return it;
}

/// True when no num_threads(...) literal in `source` exceeds the budget and
/// no parallel region opens (textually) inside another one.
bool fits_thread_budget(const std::string& source) {
  std::vector<int> open_regions; // brace depth at which each region opened
  int depth = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    if (source.compare(i, 12, "omp parallel") == 0) {
      if (!open_regions.empty()) return false;
      open_regions.push_back(depth + 1);
    }
    if (source.compare(i, 12, "num_threads(") == 0 &&
        std::stoi(source.substr(i + 12)) > kThreads)
      return false;
    if (source[i] == '{') ++depth;
    if (source[i] == '}') {
      if (!open_regions.empty() && open_regions.back() == depth)
        open_regions.pop_back();
      --depth;
    }
  }
  return true;
}

/// The corpus programs only the watchdog can decide.
void add_watchdog_items(std::vector<Item>& items) {
  for (const auto& e : pw::corpus()) {
    if (e.dynamic != pw::DynamicOutcome::DeadlockReported) continue;
    Item it;
    it.name = e.name;
    it.source = e.source;
    it.role = Role::Watchdog;
    it.st = {e.expected_static, e.forbidden_static, false};
    it.run.verdict = Verdict::Deadlock;
    it.run.mentions = {"MPI_COMM_WORLD", "comm_split#"};
    it.ranks = std::min(e.ranks, kRanks);
    it.threads = std::min(e.threads, kThreads);
    items.push_back(std::move(it));
  }
}

std::vector<Item> fig1_static() {
  std::vector<Item> items;
  for (auto& g : pw::figure1_suite()) {
    Item it;
    it.name = g.name;
    it.source = std::move(g.source);
    it.role = Role::Static;
    it.st = kHybridClean;
    it.taint_clean = true;
    items.push_back(std::move(it));
  }
  // Run-scale twins: figure1_suite()'s code-shaping parameters, two threads
  // and one time step.
  pw::NpbParams bt{16, 1, kThreads, 8, false};
  pw::NpbParams sp{16, 1, kThreads, 6, false};
  pw::NpbParams lu{12, 1, kThreads, 7, false};
  items.push_back(runnable(pw::make_npb_mz(pw::NpbVariant::BT, bt),
                           Role::RunOnly, clean_with(npb_answer(kRanks, 1))));
  items.push_back(runnable(pw::make_npb_mz(pw::NpbVariant::SP, sp),
                           Role::RunOnly, clean_with(npb_answer(kRanks, 1))));
  items.push_back(runnable(pw::make_npb_mz(pw::NpbVariant::LU, lu),
                           Role::RunOnly, clean_with(npb_answer(kRanks, 1))));
  items.push_back(runnable(pw::make_epcc_suite(pw::EpccParams{1, kThreads, 1}),
                           Role::RunOnly, clean_with(epcc_answer(kRanks))));
  pw::HeraParams hera;
  hera.steps = 1;
  hera.threads = kThreads;
  items.push_back(runnable(pw::make_hera(hera), Role::RunOnly,
                           clean_with(hera_answer(kRanks, 1))));
  return items;
}

std::vector<Item> hybrid_run(SplitMix& rng) {
  std::vector<Item> items;
  const auto a = static_cast<int32_t>(1 + rng.next() % (kBtSteps - 1));
  for (const int32_t niter : {a, kBtSteps - a}) {
    pw::NpbParams p{kBtZones, niter, kThreads, kBtStages, true};
    auto g = pw::make_npb_mz(pw::NpbVariant::BT, p);
    g.name = parcoach::str::cat(g.name, "_niter", niter);
    items.push_back(runnable(std::move(g), Role::Verdict,
                             clean_with(npb_answer(kRanks, niter))));
  }
  items.push_back(
      runnable(pw::make_epcc_suite(pw::EpccParams{kEpccReps, kThreads, kEpccSizes}),
               Role::Verdict, clean_with(epcc_answer(kRanks))));
  return items;
}

/// One testgen program per slot: clean, then each mutation in turn. A
/// generator seed outside the size band, or whose mutation cannot be
/// applied, is skipped for the next one drawn from `rng`, so the batch
/// composition never depends on the seed.
Item testgen_item(SplitMix& rng, int32_t slot) {
  static constexpr pw::Mutation kKinds[] = {
      pw::Mutation::None, pw::Mutation::RankGuard,
      pw::Mutation::KindDivergence, pw::Mutation::EarlyExit};
  const pw::Mutation mutation = kKinds[slot % 4];
  for (int attempt = 0; attempt < 256; ++attempt) {
    pw::GenOptions opts;
    opts.seed = rng.next();
    opts.threads = kThreads;
    const pw::GenResult clean = pw::generate_random_program(opts);
    const size_t lines = parcoach::str::count_code_lines(clean.source);
    if (clean.collective_sites == 0 || lines < kTestgenMinLines ||
        lines >= kTestgenMaxLines)
      continue;
    Item it;
    it.name = parcoach::str::cat("testgen_", slot);
    if (mutation == pw::Mutation::None) {
      it.source = clean.source;
      it.st = kHybridClean;
      it.unchecked = true;
      return it;
    }
    opts.mutation = mutation;
    opts.mutation_site =
        static_cast<int32_t>(opts.seed % static_cast<uint64_t>(clean.collective_sites));
    pw::GenResult mutated = pw::generate_random_program(opts);
    if (!mutated.mutation_applied) continue;
    it.source = std::move(mutated.source);
    it.st = {{DiagKind::CollectiveMismatch}, {}, true};
    it.run.verdict = mutation == pw::Mutation::EarlyExit ? Verdict::Caught
                                                         : Verdict::CleanOrCaught;
    return it;
  }
  throw std::runtime_error("testgen produced no usable program in 256 draws");
}

std::vector<Item> verdict_sweep(SplitMix& rng) {
  std::vector<Item> items;
  for (const auto& e : pw::corpus()) {
    if (e.dynamic == pw::DynamicOutcome::CaughtRace ||
        e.dynamic == pw::DynamicOutcome::ThreadLevelWarn ||
        e.dynamic == pw::DynamicOutcome::DeadlockReported ||
        !fits_thread_budget(e.source))
      continue;
    Item it;
    it.name = e.name;
    it.source = e.source;
    it.st = {e.expected_static, e.forbidden_static, false};
    it.ranks = std::min(e.ranks, kRanks);
    it.threads = std::min(e.threads, kThreads);
    if (e.dynamic == pw::DynamicOutcome::Clean) {
      it.unchecked = true;
    } else {
      it.run.verdict = Verdict::Caught;
      it.run.rt_kind = e.expected_rt;
    }
    items.push_back(std::move(it));
  }
  for (int32_t slot = 0; slot < kTestgenPrograms; ++slot)
    items.push_back(testgen_item(rng, slot));
  return items;
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig1_static", "hybrid_run",
                                              "verdict_sweep"};
  return names;
}

Workload make_workload(const std::string& name, uint64_t seed) {
  SplitMix rng{seed};
  Workload w;
  w.name = name;
  if (name == "fig1_static") {
    w.items = fig1_static();
  } else if (name == "hybrid_run") {
    w.items = hybrid_run(rng);
  } else if (name == "verdict_sweep") {
    w.items = verdict_sweep(rng);
  } else {
    throw std::invalid_argument(parcoach::str::cat("unknown workload '", name, "'"));
  }
  add_watchdog_items(w.items);
  return w;
}

parcoach::interp::ExecOptions exec_options(const Item& item) {
  parcoach::interp::ExecOptions o;
  o.num_ranks = item.ranks;
  o.num_threads = item.threads;
  o.mpi.hang_timeout = item.role == Role::Watchdog ? kWatchdogHang : kRunHang;
  return o;
}

} // namespace perfbench
