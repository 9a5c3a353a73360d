// Known-answer checks: every expectation here is derived from the program's
// specification (the generators' closed forms, the corpus table, the paper's
// safety property), never from a saved copy of the checker's own output.
#include "bench.h"

#include "support/str.h"

#include <algorithm>
#include <iostream>

namespace perfbench {

using parcoach::DiagKind;
using parcoach::Severity;

Observed observe(const parcoach::interp::ExecResult& r) {
  Observed o;
  o.clean = r.clean;
  o.deadlock = r.mpi.deadlock;
  o.deadlock_details = r.mpi.deadlock_details;
  for (const auto& d : r.rt_diags)
    if (d.severity == Severity::Error) o.rt_errors.push_back(d.kind);
  o.output = r.output;
  return o;
}

namespace {

std::string join(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) s += parcoach::str::cat("    ", l, "\n");
  return s;
}

} // namespace

std::string check_run(const Observed& got, const Expect& want) {
  const bool caught =
      std::find(got.rt_errors.begin(), got.rt_errors.end(), want.rt_kind) !=
      got.rt_errors.end();
  switch (want.verdict) {
    case Verdict::Clean:
      if (!got.clean)
        return got.deadlock ? "expected clean, the watchdog declared a deadlock"
                            : "expected clean, the run reported errors";
      break;
    case Verdict::Caught:
    case Verdict::CleanOrCaught:
      if (got.deadlock) return "expected a catch before the hang, got a deadlock";
      if (caught) break;
      if (want.verdict == Verdict::CleanOrCaught && got.clean) break;
      return parcoach::str::cat("expected runtime error ",
                                parcoach::to_string(want.rt_kind));
    case Verdict::Deadlock:
      if (!got.deadlock) return "expected the watchdog to report a deadlock";
      for (const auto& m : want.mentions)
        if (got.deadlock_details.find(m) == std::string::npos)
          return parcoach::str::cat("deadlock report does not name ", m);
      break;
  }
  if (want.has_output && got.output != want.output)
    return parcoach::str::cat("output differs from the closed form\n  want:\n",
                              join(want.output), "  got:\n", join(got.output));
  return {};
}

std::string check_static(const parcoach::driver::CompileResult& r,
                         const parcoach::DiagnosticEngine& diags,
                         const StaticExpect& want) {
  if (!r.ok) return "compile failed";
  for (DiagKind k : want.required)
    if (diags.count(k) == 0)
      return parcoach::str::cat("missing static warning ", parcoach::to_string(k));
  for (DiagKind k : want.forbidden)
    if (diags.count(k) != 0)
      return parcoach::str::cat("unexpected static warning ",
                                parcoach::to_string(k));
  for (const auto& d : r.algorithm1.divergences)
    for (const auto& cls : d.comm_classes)
      if (r.plan.cc_classes.count(cls) == 0)
        return parcoach::str::cat("flagged comm class '", cls, "' is not armed");
  if (!r.algorithm1.divergences.empty() && !r.plan.cc_final_in_main)
    return "divergences flagged but no exit sentinel in main";
  if (want.cc_armed && (r.plan.cc_stmts.empty() || !r.plan.cc_final_in_main))
    return "plan arms no CC check";
  return {};
}

std::vector<std::string> npb_answer(int64_t ranks, int64_t niter) {
  int64_t rms = 0;
  for (int64_t r = 0; r < ranks; ++r) rms += r * 31 + niter;
  std::vector<std::string> out{
      parcoach::str::cat("rank 0: ", (ranks - 1) * 31 + niter, " ", rms),
      parcoach::str::cat("rank 0: ", 3 * niter + ranks - 1)};
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> epcc_answer(int64_t ranks) {
  int64_t warm = 0;
  for (int64_t i = 0; i < 100; ++i) warm += i % 13;
  return {parcoach::str::cat("rank 0: ", ranks * warm)};
}

std::vector<std::string> hera_answer(int64_t ranks, int64_t steps) {
  std::vector<std::string> out{"rank 0: 1"};
  for (int64_t s = 0; s < steps; s += 5) {
    int64_t total = 0;
    for (int64_t r = 0; r < ranks; ++r) total += (r + 1) * 4096 + s;
    out.push_back(parcoach::str::cat("rank 0: ", s, " ", total));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Self-test -----------------------------------------------------------------

namespace {

struct Tally {
  int misjudged = 0;
  void expect(bool accepted, bool should_accept, const char* what) {
    if (accepted == should_accept) return;
    ++misjudged;
    std::cerr << "perfbench self-test: checker " << (accepted ? "accepted" : "rejected")
              << " " << what << "\n";
  }
};

Observed clean_run(std::vector<std::string> output) {
  Observed o;
  o.clean = true;
  o.output = std::move(output);
  return o;
}

constexpr const char* kDivergent = R"(func main() {
  mpi_init(single);
  var x = rank();
  if (rank() == 0) {
    x = mpi_allreduce(x, sum);
  }
  mpi_finalize();
}
)";

} // namespace

int self_test() {
  Tally t;

  // Closed forms against values worked out by hand for two ranks.
  t.expect(npb_answer(2, 3) ==
               std::vector<std::string>{"rank 0: 10", "rank 0: 34 37"},
           true, "the hand-computed NPB-MZ answer");
  t.expect(epcc_answer(2) == std::vector<std::string>{"rank 0: 1164"}, true,
           "the hand-computed EPCC answer");
  t.expect(hera_answer(2, 1) ==
               std::vector<std::string>{"rank 0: 0 12288", "rank 0: 1"},
           true, "the hand-computed HERA answer");

  // Output checks.
  Expect npb{Verdict::Clean, DiagKind::RtCollectiveMismatch, true,
             npb_answer(2, 3), {}};
  t.expect(check_run(clean_run(npb_answer(2, 3)), npb).empty(), true,
           "the right NPB-MZ output");
  t.expect(check_run(clean_run(npb_answer(2, 4)), npb).empty(), false,
           "an NPB-MZ output for the wrong niter");
  t.expect(check_run(clean_run({"rank 0: 34 37"}), npb).empty(), false,
           "an NPB-MZ output missing t_max");
  Expect epcc{Verdict::Clean, DiagKind::RtCollectiveMismatch, true,
              epcc_answer(2), {}};
  t.expect(check_run(clean_run(epcc_answer(3)), epcc).empty(), false,
           "an EPCC output for the wrong rank count");

  // Verdict checks.
  Observed hang;
  hang.deadlock = true;
  hang.deadlock_details = "rank 0 blocked on MPI_COMM_WORLD slot 1";
  Observed caught;
  caught.rt_errors = {DiagKind::RtCollectiveMismatch};
  Observed leak;
  leak.rt_errors = {DiagKind::RtRequestLeak};
  const Expect clean{};
  Expect catch_cc{Verdict::Caught, DiagKind::RtCollectiveMismatch, false, {}, {}};
  Expect maybe_cc = catch_cc;
  maybe_cc.verdict = Verdict::CleanOrCaught;
  Expect cycle{Verdict::Deadlock, DiagKind::RtCollectiveMismatch, false, {},
               {"MPI_COMM_WORLD", "comm_split#"}};
  t.expect(check_run(clean_run({}), clean).empty(), true, "a clean run as clean");
  t.expect(check_run(hang, clean).empty(), false, "a deadlock as clean");
  t.expect(check_run(caught, clean).empty(), false, "a caught mismatch as clean");
  t.expect(check_run(caught, catch_cc).empty(), true, "a caught mismatch as caught");
  t.expect(check_run(clean_run({}), catch_cc).empty(), false,
           "a clean run as a caught mismatch");
  t.expect(check_run(leak, catch_cc).empty(), false,
           "a request leak as a collective mismatch");
  t.expect(check_run(hang, catch_cc).empty(), false, "a deadlock as a catch");
  t.expect(check_run(clean_run({}), maybe_cc).empty(), true,
           "a clean run where the faulty site may be unreachable");
  t.expect(check_run(hang, maybe_cc).empty(), false,
           "a deadlock where the safety property forbids one");
  t.expect(check_run(clean_run({}), cycle).empty(), false,
           "a clean run as a watchdog deadlock");
  t.expect(check_run(hang, cycle).empty(), false,
           "a deadlock report that does not name the split communicator");
  hang.deadlock_details += "\nrank 1 blocked on comm_split#1 slot 0";
  t.expect(check_run(hang, cycle).empty(), true,
           "a deadlock report naming both communicators");

  // Static checks on a real compile of a rank-divergent collective.
  Item divergent;
  divergent.name = "self_test_divergent";
  divergent.source = kDivergent;
  const auto c = compile_item(divergent);
  StaticExpect flagged{{DiagKind::CollectiveMismatch}, {}, true};
  StaticExpect hybrid_clean{{}, {DiagKind::CollectiveMismatch}, false};
  t.expect(check_static(c->r, c->diags, flagged).empty(), true,
           "a flagged divergence with its class armed");
  t.expect(check_static(c->r, c->diags, hybrid_clean).empty(), false,
           "a divergent program as free of mismatch warnings");
  c->r.plan.cc_classes.clear();
  t.expect(check_static(c->r, c->diags, flagged).empty(), false,
           "a plan that leaves a flagged class unarmed");
  c->r.ok = false;
  t.expect(check_static(c->r, c->diags, {}).empty(), false, "a failed compile");

  return t.misjudged;
}

} // namespace perfbench
