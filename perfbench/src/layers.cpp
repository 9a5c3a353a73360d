// The traced pass: per-layer numbers for one pass over a workload.
//
// Static layers: every stage driver::compile chains is called on its own
// (frontend parse/sema/lower, the IR optimization pipeline, the core
// analyses and instrumentation, textual emit), and driver::compile itself is
// timed on the same programs so the stage sum can be compared with it.
// Runtime layers: each run item is compiled to bytecode by hand
// (interp::compile, interp::run_passes), run once untraced and once with a
// tracer, a metrics registry and opcode-mix profiling attached; the
// difference of the two run times is the cost of observing. Small probes
// time single calls into simmpi and miniomp.
#include "bench.h"

#include "core/summaries.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/printer.h"
#include "miniomp/team.h"
#include "passes/pass_manager.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace pc = parcoach;

namespace {

/// Events kept per traced thread. Every thread that emits registers its own
/// ring, including each team thread miniomp spawns for a region, so the
/// ring size multiplies with the regions that call MPI off the master.
constexpr size_t kTraceRing = 1 << 12;

/// Per-call probe repetitions.
constexpr int kWorldProbes = 8;
constexpr int kBarrierProbes = 400;
constexpr int kForkJoinProbes = 100;
constexpr int kOmpBarrierProbes = 2000;
/// Outer iterations of the interpreter-bound kernel.
constexpr int64_t kKernelIters = 200'000;

using Samples = std::map<std::string, double>;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Every stage of driver::compile, called one at a time.
void static_stages(const Item& item, Samples& s) {
  pc::SourceManager sm;
  pc::DiagnosticEngine diags;
  const int32_t id = sm.add_buffer(item.name, item.source);
  pc::frontend::Program program;
  std::unique_ptr<pc::ir::Module> mod;
  s["frontend.parse_s"] +=
      timed([&] { program = pc::frontend::Parser::parse(sm, id, diags); });
  s["frontend.sema_s"] +=
      timed([&] { (void)pc::frontend::Sema::analyze(program, diags); });
  s["frontend.lower_s"] +=
      timed([&] { mod = pc::frontend::Lowering::lower(program, diags); });
  s["passes.optimize_s"] += timed([&] {
    auto pm = pc::passes::PassManager::standard_pipeline();
    pm.run(*mod);
  });
  s["frontend.code_lines"] += static_cast<double>(pc::str::count_code_lines(item.source));
  s["passes.ir_instrs"] += static_cast<double>(mod->num_instructions());

  std::optional<pc::core::Summaries> sums;
  pc::core::PhaseResult phases;
  pc::core::Algorithm1Result alg1;
  pc::core::InstrumentationPlan plan;
  size_t inserted = 0;
  std::string text;
  s["core.summaries_s"] += timed([&] { sums.emplace(pc::core::Summaries::build(*mod)); });
  s["core.phases_s"] +=
      timed([&] { phases = pc::core::run_phases(*mod, *sums, {}, diags); });
  s["core.algorithm1_s"] +=
      timed([&] { alg1 = pc::core::run_algorithm1(*mod, *sums, {}, diags); });
  s["core.thread_level_s"] +=
      timed([&] { (void)pc::core::check_thread_levels(*mod, *sums, diags); });
  s["core.instrument_s"] += timed([&] {
    plan = pc::core::make_plan(*mod, phases, alg1);
    inserted = pc::core::apply_plan(*mod, plan);
  });
  s["driver.emit_s"] += timed([&] { text = pc::ir::to_text(*mod); });
  s["core.warnings"] += static_cast<double>(diags.count(pc::Severity::Warning));
  s["core.checks_inserted"] += static_cast<double>(inserted);
  s["core.cc_sites_armed"] += static_cast<double>(plan.cc_stmts.size());
  s["driver.emitted_bytes"] += static_cast<double>(text.size());
}

constexpr const char* kStageTimes[] = {
    "frontend.parse_s", "frontend.sema_s",     "frontend.lower_s",
    "passes.optimize_s", "core.summaries_s",   "core.phases_s",
    "core.algorithm1_s", "core.thread_level_s", "core.instrument_s",
    "driver.emit_s"};

/// Sums the Park->Unpark and CollEnter->CollExit intervals per thread and
/// counts the threads that registered a ring.
void trace_intervals(const pc::Tracer& tracer, Samples& s) {
  std::set<int32_t> rings; // one per thread that emitted
  std::map<int32_t, int64_t> parked_at;
  std::map<int32_t, std::vector<int64_t>> coll_stack;
  double parked = 0, coll = 0;
  for (const auto& e : tracer.snapshot()) {
    rings.insert(e.tid);
    switch (e.kind) {
      case pc::TraceEv::Park: parked_at[e.tid] = e.ts_ns; break;
      case pc::TraceEv::Unpark:
        if (auto it = parked_at.find(e.tid); it != parked_at.end()) {
          parked += static_cast<double>(e.ts_ns - it->second) * 1e-9;
          parked_at.erase(it);
        }
        break;
      case pc::TraceEv::CollEnter: coll_stack[e.tid].push_back(e.ts_ns); break;
      case pc::TraceEv::CollExit:
        if (auto& st = coll_stack[e.tid]; !st.empty()) {
          coll += static_cast<double>(e.ts_ns - st.back()) * 1e-9;
          st.pop_back();
        }
        break;
      default: break;
    }
  }
  s["simmpi.parked_s"] += parked;
  s["simmpi.coll_s"] += coll;
  s["support.trace_rings"] += static_cast<double>(rings.size());
}

void registry_counters(const pc::MetricsRegistry& m, Samples& s) {
  for (const auto& sample : m.snapshot()) {
    const auto v = static_cast<double>(sample.value);
    const std::string& n = sample.name;
    if (n.rfind("comm.", 0) == 0 && n.size() > 11 &&
        n.compare(n.size() - 11, 11, ".slot_waits") == 0)
      s["simmpi.slot_waits"] += v;
    else if (n == "watchdog.polls")
      s["simmpi.watchdog_polls"] += v;
    else if (n == "cc.rounds")
      s["rt.cc_checks"] += v;
    else if (n == "vm.op.parallel")
      s["miniomp.regions"] += v;
    else if (n == "vm.op.omp_barrier")
      s["miniomp.barriers"] += v;
  }
}

// ---- Per-call probes ---------------------------------------------------------------

double world_probe() {
  std::vector<double> v;
  for (int k = 0; k < kWorldProbes; ++k) {
    pc::simmpi::World::Options o;
    o.num_ranks = 2;
    pc::simmpi::World world(o);
    v.push_back(timed([&] { (void)world.run([](pc::simmpi::Rank&) {}); }));
  }
  return median_of(v);
}

double barrier_probe() {
  pc::simmpi::World::Options o;
  o.num_ranks = 2;
  pc::simmpi::World world(o);
  double per_call = 0;
  (void)world.run([&](pc::simmpi::Rank& mpi) {
    mpi.init(pc::ir::ThreadLevel::Single);
    mpi.barrier();
    const auto t0 = Clock::now();
    for (int k = 0; k < kBarrierProbes; ++k) mpi.barrier();
    if (mpi.rank() == 0) per_call = seconds_since(t0) / kBarrierProbes;
    mpi.finalize();
  });
  return per_call;
}

double fork_join_probe() {
  pc::miniomp::ProcessDomain domain;
  pc::miniomp::ThreadContext root;
  root.domain = &domain;
  return timed([&] {
           for (int k = 0; k < kForkJoinProbes; ++k)
             pc::miniomp::Runtime::parallel(root, 2, true,
                                            [](pc::miniomp::ThreadContext&) {});
         }) /
         kForkJoinProbes;
}

double omp_barrier_probe() {
  pc::miniomp::ProcessDomain domain;
  pc::miniomp::ThreadContext root;
  root.domain = &domain;
  double per_call = 0;
  pc::miniomp::Runtime::parallel(root, 2, true, [&](pc::miniomp::ThreadContext& ctx) {
    pc::miniomp::Runtime::barrier(ctx);
    const auto t0 = Clock::now();
    for (int k = 0; k < kOmpBarrierProbes; ++k) pc::miniomp::Runtime::barrier(ctx);
    if (ctx.thread_num == 0) per_call = seconds_since(t0) / kOmpBarrierProbes;
  });
  return per_call;
}

/// The interpreter-bound kernel of bench_interp_engine: arithmetic and
/// control flow on one rank and one thread, MPI only at the edges.
std::string kernel_source() {
  return pc::str::cat(R"(func kernel(n) {
  var acc = 0;
  for (i = 0 to n) {
    var t = i * 3 + acc;
    t = t % 1009;
    if (t % 2 == 0) {
      acc = acc + t;
    } else {
      acc = acc - t / 2;
    }
    var j = 0;
    while (j < 4) {
      acc = acc + j * i;
      j = j + 1;
    }
    acc = acc % 100003;
  }
  return acc;
}
func main() {
  mpi_init(single);
  var r = kernel()",
                      kKernelIters, R"();
  var s = mpi_allreduce(r, sum);
  print(s);
  mpi_finalize();
}
)");
}

double ns_per_vm_op() {
  static const std::unique_ptr<Compiled> kernel = [] {
    Item it;
    it.name = "interp_bound_kernel";
    it.source = kernel_source();
    return compile_item(it);
  }();
  pc::interp::Executor exec(kernel->r.program, kernel->sm, &kernel->r.plan);
  pc::interp::ExecOptions o;
  o.num_ranks = 1;
  o.num_threads = 1;
  o.mpi.hang_timeout = kRunHang;
  pc::interp::ExecResult r;
  const double s = timed([&] { r = exec.run(o); });
  if (!r.clean || r.mpi.bytecode_ops == 0)
    throw std::runtime_error("the interpreter-bound kernel did not run clean");
  return s * 1e9 / static_cast<double>(r.mpi.bytecode_ops);
}

} // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"frontend.parse_s", "s"},        {"frontend.sema_s", "s"},
      {"frontend.lower_s", "s"},        {"frontend.code_lines", "count"},
      {"passes.optimize_s", "s"},       {"passes.ir_instrs", "count"},
      {"core.summaries_s", "s"},        {"core.phases_s", "s"},
      {"core.algorithm1_s", "s"},       {"core.thread_level_s", "s"},
      {"core.instrument_s", "s"},       {"core.warnings", "count"},
      {"core.checks_inserted", "count"}, {"core.cc_sites_armed", "count"},
      {"driver.emit_s", "s"},           {"driver.emitted_bytes", "bytes"},
      {"driver.compile_s", "s"},        {"driver.stage_sum_s", "s"},
      {"interp.bc_compile_s", "s"},     {"interp.bc_passes_s", "s"},
      {"interp.bc_instrs", "count"},    {"interp.vm_ops", "count"},
      {"interp.ns_per_vm_op", "ns"},    {"simmpi.world_s", "s"},
      {"simmpi.barrier_s", "s"},        {"simmpi.app_slots", "count"},
      {"simmpi.slot_waits", "count"},   {"simmpi.parked_s", "s"},
      {"simmpi.coll_s", "s"},           {"simmpi.comms_created", "count"},
      {"simmpi.watchdog_polls", "count"}, {"miniomp.fork_join_s", "s"},
      {"miniomp.barrier_s", "s"},       {"miniomp.regions", "count"},
      {"miniomp.barriers", "count"},    {"rt.cc_checks", "count"},
      {"rt.diagnostics", "count"},      {"support.trace_events", "count"},
      {"support.trace_events_dropped", "count"},
      {"support.trace_rings", "count"},
      {"support.trace_overhead_s", "s"}};
  return m;
}

Samples Runner::traced_pass() {
  Samples s;
  for (const auto& [name, unit] : layer_metrics()) s[name] = 0;
  double untraced = 0, traced = 0;
  for (size_t i = 0; i < wl_.items.size(); ++i) {
    const Item& it = wl_.items[i];
    // Watchdog items spend their time waiting out the hang timeout; the
    // untraced passes time them.
    if (it.role == Role::Watchdog) continue;
    ++attempted_;
    // Stages first: whichever of the two compiles of an item runs first pays
    // for touching fresh memory, and driver::compile in the untraced pass
    // follows other items' compiles, as it does here.
    const bool compiles = it.role == Role::Static || it.role == Role::Verdict;
    if (compiles) static_stages(it, s);
    double compile_s = 0;
    const auto c = compile_timed(i, compile_s);
    if (!c) continue;
    if (compiles) s["driver.compile_s"] += compile_s;
    if (it.role == Role::Static) continue;

    pc::interp::BcProgram bc;
    s["interp.bc_compile_s"] +=
        timed([&] { bc = pc::interp::compile(c->r.program, c->sm, &c->r.plan); });
    s["interp.bc_passes_s"] += timed([&] { pc::interp::run_passes(bc); });
    s["interp.bc_instrs"] += static_cast<double>(bc.total_instrs());

    check(it, check_run(run(*c, it, /*checked=*/true, untraced), it.run));

    pc::Tracer tracer(pc::TracerOptions{true, kTraceRing});
    pc::MetricsRegistry metrics;
    pc::interp::Executor exec(c->r.program, c->sm, &c->r.plan);
    auto opts = exec_options(it);
    opts.tracer = &tracer;
    opts.metrics = &metrics;
    opts.opmix = true;
    pc::interp::ExecResult r;
    traced += timed([&] { r = exec.run(opts); });
    check(it, check_run(observe(r), it.run)); // traced == untraced verdict
    s["interp.vm_ops"] += static_cast<double>(r.mpi.bytecode_ops);
    s["simmpi.app_slots"] += static_cast<double>(r.mpi.app_slots_completed);
    s["simmpi.comms_created"] += static_cast<double>(r.mpi.comms_created);
    s["rt.diagnostics"] += static_cast<double>(r.rt_diags.size());
    s["support.trace_events"] += static_cast<double>(tracer.events_captured());
    s["support.trace_events_dropped"] += static_cast<double>(tracer.events_dropped());
    registry_counters(metrics, s);
    trace_intervals(tracer, s);
  }
  for (const char* name : kStageTimes) s["driver.stage_sum_s"] += s[name];
  s["support.trace_overhead_s"] = traced - untraced;
  s["interp.ns_per_vm_op"] = ns_per_vm_op();
  s["simmpi.world_s"] = world_probe();
  s["simmpi.barrier_s"] = barrier_probe();
  s["miniomp.fork_join_s"] = fork_join_probe();
  s["miniomp.barrier_s"] = omp_barrier_probe();
  return s;
}

} // namespace perfbench
