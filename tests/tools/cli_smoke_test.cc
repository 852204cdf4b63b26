// End-to-end smoke tests of the opim_cli binary: generate, inspect,
// convert, run, evaluate — the full user workflow, driven through the
// actual executable. Located via the OPIM_CLI_PATH compile definition.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#include "temp_path.h"

namespace opim {
namespace {

/// Runs a command, returning (exit code, captured stdout).
std::pair<int, std::string> RunCommand(const std::string& cmd) {
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  int rc = pclose(pipe);
  return {rc, output};
}

/// Decodes the child's exit code from the pclose() wait status.
int ExitCode(int wait_status) {
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

std::string Cli() { return OPIM_CLI_PATH; }

std::string TmpFile(const char* name) {
  return TestTempPath(name);
}

TEST(CliSmokeTest, GenStatsRoundTrip) {
  std::string bin = TmpFile("cli_smoke.bin");
  auto [rc1, out1] = RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                         bin);
  ASSERT_EQ(rc1, 0) << out1;
  EXPECT_NE(out1.find("n=512"), std::string::npos) << out1;

  auto [rc2, out2] = RunCommand(Cli() + " stats --graph=" + bin);
  ASSERT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("nodes          512"), std::string::npos) << out2;
  EXPECT_NE(out2.find("LT-feasible"), std::string::npos) << out2;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, RunOpimCAndEvaluate) {
  std::string bin = TmpFile("cli_run.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=livejournal-sim --scale=9 --out=" +
                bin).first, 0);

  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=500");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  EXPECT_NE(out.find("expected_spread="), std::string::npos) << out;

  auto [rc2, out2] =
      RunCommand(Cli() + " evaluate --graph=" + bin + " --mc=500 0 1 2");
  ASSERT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("ci95"), std::string::npos) << out2;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, ConvertWccTextToBinary) {
  std::string txt = TmpFile("cli_conv.txt");
  {
    FILE* f = fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // Two components: {0,1,2} and {3,4}.
    fputs("0 1\n1 2\n3 4\n", f);
    fclose(f);
  }
  std::string bin = TmpFile("cli_conv.bin");
  auto [rc, out] = RunCommand(Cli() + " convert --in=" + txt + " --out=" + bin +
                       " --wcc=true");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("kept 3 of 5"), std::string::npos) << out;
  auto [rc2, out2] = RunCommand(Cli() + " stats --graph=" + bin);
  ASSERT_EQ(rc2, 0);
  EXPECT_NE(out2.find("nodes          3"), std::string::npos) << out2;
  std::remove(txt.c_str());
  std::remove(bin.c_str());
}

std::string ReadFile(const std::string& path) {
  std::string content;
  std::array<char, 4096> buffer;
  FILE* f = fopen(path.c_str(), "r");
  if (f == nullptr) return content;
  size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), f)) > 0) {
    content.append(buffer.data(), got);
  }
  fclose(f);
  return content;
}

TEST(CliSmokeTest, RunWritesMetricsJsonReport) {
  std::string bin = TmpFile("cli_metrics.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_metrics.json");
  std::string csv = TmpFile("cli_metrics.csv");
  auto [rc, out] = RunCommand(
      Cli() + " run --graph=" + bin +
      " --algo=opim-c+ --k=3 --eps=0.3 --threads=2 --metrics-json=" + json +
      " --metrics-csv=" + csv);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("metrics_json=" + json), std::string::npos) << out;

  const std::string report = ReadFile(json);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front(), '{');
  EXPECT_EQ(report.back(), '}');
  // Schema + key run results.
  EXPECT_NE(report.find("\"opim.run_report.v1\""), std::string::npos);
  EXPECT_NE(report.find("\"alpha\""), std::string::npos);
  EXPECT_NE(report.find("\"threads_resolved\":2"), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  // Engine counters from the instrumented hot paths (absent, by design,
  // when telemetry is compiled out).
  EXPECT_NE(report.find("\"opim.rrset.sets_generated\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.rrset.edges_examined\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.select.cover_updates\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.pool.tasks_run\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.opimc.phase.generate_us\""), std::string::npos);
#endif
  // Per-iteration rows are part of the report proper, not the metrics
  // snapshot, so they survive -DOPIM_TELEMETRY=OFF.
  EXPECT_NE(report.find("\"generate_seconds\""), std::string::npos);

  const std::string rows = ReadFile(csv);
  EXPECT_NE(rows.find("iteration,theta1,sigma_lower,sigma_upper,alpha"),
            std::string::npos) << rows;

  std::remove(bin.c_str());
  std::remove(json.c_str());
  std::remove(csv.c_str());
}

TEST(CliSmokeTest, OnlineWritesMetricsJsonReport) {
  std::string bin = TmpFile("cli_online_metrics.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_online_metrics.json");
  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=3 --batch=256 --metrics-json=" + json);
  ASSERT_EQ(rc, 0) << out;
  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"opim.run_report.v1\""), std::string::npos);
  EXPECT_NE(report.find("\"advance_seconds\""), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  EXPECT_NE(report.find("\"opim.online.queries\""), std::string::npos);
#endif
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliSmokeTest, TelemetryFlagsDoNotPerturbResults) {
  // Same seed, with and without telemetry outputs / verbose logging:
  // the algorithmic stdout lines (seeds, alpha, ...) must be identical.
  std::string bin = TmpFile("cli_determinism.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  const std::string base = Cli() + " run --graph=" + bin +
                           " --algo=opim-c+ --k=3 --eps=0.3 --seed=7";
  auto [rc1, plain] = RunCommand(base);
  ASSERT_EQ(rc1, 0) << plain;

  std::string json = TmpFile("cli_determinism.json");
  auto [rc2, instrumented] =
      RunCommand(base + " --log-level=debug --metrics-json=" + json);
  ASSERT_EQ(rc2, 0) << instrumented;

  // Compare the algorithmic lines; the instrumented run adds log lines
  // (stderr merged into stdout) and a metrics_json= line on top.
  for (const char* key : {"seeds:", "alpha=", "rr_sets=", "iterations="}) {
    size_t pos = plain.find(key);
    ASSERT_NE(pos, std::string::npos) << key << "\n" << plain;
    std::string line = plain.substr(pos, plain.find('\n', pos) - pos);
    EXPECT_NE(instrumented.find(line), std::string::npos)
        << "line diverged: " << line << "\n" << instrumented;
  }
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

std::string ReportLint() { return OPIM_REPORT_LINT_PATH; }

TEST(CliSmokeTest, RunWritesTraceJsonThatLintsClean) {
  std::string bin = TmpFile("cli_trace.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string trace = TmpFile("cli_trace.json");
  std::string json = TmpFile("cli_trace_metrics.json");
  auto [rc, out] = RunCommand(
      Cli() + " run --graph=" + bin +
      " --algo=opim-c+ --k=3 --eps=0.3 --threads=2 --trace-json=" + trace +
      " --metrics-json=" + json);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("trace_json=" + trace), std::string::npos) << out;

  const std::string doc = ReadFile(trace);
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"opim.trace.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  // Spans from the instrumented modules; telemetry-OFF builds still write
  // a valid (empty) trace document.
  for (const char* cat : {"\"opimc\"", "\"rrset\"", "\"select\"",
                          "\"bounds\"", "\"pool\""}) {
    EXPECT_NE(doc.find(cat), std::string::npos) << "missing category " << cat;
  }
#endif

  // The shipped validator accepts both artifacts.
  auto [lint_rc, lint_out] = RunCommand(ReportLint() + " --trace-json=" +
                                        trace + " --metrics-json=" + json);
  EXPECT_EQ(ExitCode(lint_rc), 0) << lint_out;
  EXPECT_NE(lint_out.find("report_lint: ok"), std::string::npos) << lint_out;

  std::remove(bin.c_str());
  std::remove(trace.c_str());
  std::remove(json.c_str());
}

TEST(CliSmokeTest, OnlineWritesTraceJson) {
  std::string bin = TmpFile("cli_online_trace.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string trace = TmpFile("cli_online_trace.json");
  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=3 --batch=256 --trace-json=" + trace);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("trace_json=" + trace), std::string::npos) << out;
  auto [lint_rc, lint_out] = RunCommand(ReportLint() + " --trace-json=" +
                                        trace);
  EXPECT_EQ(ExitCode(lint_rc), 0) << lint_out;
  std::remove(bin.c_str());
  std::remove(trace.c_str());
}

TEST(CliSmokeTest, ProgressFlagEmitsHeartbeatLine) {
  std::string bin = TmpFile("cli_progress.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  // Even a short run sees at least the final heartbeat line (stderr is
  // merged into the captured output).
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --progress");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("opim: progress t="), std::string::npos) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, ReportLintRejectsBadArtifacts) {
  // No inputs at all is a usage error.
  auto [rc_usage, out_usage] = RunCommand(ReportLint());
  EXPECT_EQ(ExitCode(rc_usage), 2) << out_usage;

  // A syntactically valid JSON file that violates the schema fails with 1.
  std::string bad = TmpFile("cli_bad_trace.json");
  {
    FILE* f = fopen(bad.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("{\"schema\": \"opim.trace.v1\", \"traceEvents\": ["
          "{\"name\": \"a\", \"ph\": \"X\", \"tid\": 1, "
          "\"ts\": 5, \"dur\": -1}]}",
          f);
    fclose(f);
  }
  auto [rc_bad, out_bad] = RunCommand(ReportLint() + " --trace-json=" + bad);
  EXPECT_EQ(ExitCode(rc_bad), 1) << out_bad;
  EXPECT_NE(out_bad.find("negative duration"), std::string::npos) << out_bad;
  std::remove(bad.c_str());
}

TEST(CliGuardrailTest, ExpiredDeadlineDegradesGracefullyWithExitCode3) {
  std::string bin = TmpFile("cli_deadline.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_deadline.json");
  // --deadline-ms=0 arms an already-expired deadline: the run must degrade
  // at its first safe point yet still print a size-k seed set with a
  // finite certificate and write the full report.
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --deadline-ms=0 --metrics-json=" + json);
  EXPECT_EQ(ExitCode(rc), 3) << out;
  EXPECT_NE(out.find("stop_reason=deadline"), std::string::npos) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  EXPECT_NE(out.find("seeds:"), std::string::npos) << out;

  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"stop_reason\":\"deadline\""), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"deadline_slack_ms\""), std::string::npos);
  EXPECT_NE(report.find("\"peak_rr_bytes\""), std::string::npos);
  EXPECT_NE(report.find("\"cancel_latency_ms\""), std::string::npos);
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliGuardrailTest, TinyMemoryBudgetDegradesWithExitCode4) {
  std::string bin = TmpFile("cli_membudget.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_membudget.json");
  // 0.01 MiB is below even the fixed per-run arrays, so the budget trips
  // deterministically at the first footprint poll.
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --max-rr-mb=0.01 --metrics-json=" + json);
  EXPECT_EQ(ExitCode(rc), 4) << out;
  EXPECT_NE(out.find("stop_reason=memory_budget"), std::string::npos) << out;
  EXPECT_NE(out.find("seeds:"), std::string::npos) << out;
  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"stop_reason\":\"memory_budget\""),
            std::string::npos) << report;
  EXPECT_NE(report.find("\"rr_budget_bytes\""), std::string::npos);
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliGuardrailTest, ConvergedRunReportsStopReasonAndExitsZero) {
  std::string bin = TmpFile("cli_converged.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string csv = TmpFile("cli_converged.csv");
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --deadline-ms=60000 --metrics-csv=" + csv);
  EXPECT_EQ(ExitCode(rc), 0) << out;
  EXPECT_NE(out.find("stop_reason=converged"), std::string::npos) << out;
  // The per-iteration footprint column rides at the end of the CSV rows.
  const std::string rows = ReadFile(csv);
  EXPECT_NE(rows.find("iteration,theta1,sigma_lower,sigma_upper,alpha"),
            std::string::npos) << rows;
  EXPECT_NE(rows.find(",rr_bytes"), std::string::npos) << rows;
  std::remove(bin.c_str());
  std::remove(csv.c_str());
}

TEST(CliGuardrailTest, OnlineSessionHonorsDeadline) {
  std::string bin = TmpFile("cli_online_deadline.bin");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=50 --batch=512 --target=0.999" +
                       " --deadline-ms=0");
  EXPECT_EQ(ExitCode(rc), 3) << out;
  EXPECT_NE(out.find("stop_reason=deadline"), std::string::npos) << out;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, BadLogLevelIsCleanError) {
  auto [rc, out] = RunCommand(Cli() + " run --log-level=shout");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(CliSmokeTest, UnknownCommandFails) {
  auto [rc, out] = RunCommand(Cli() + " frobnicate");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(CliSmokeTest, MissingGraphIsCleanError) {
  auto [rc, out] = RunCommand(Cli() + " stats --graph=/nonexistent/x.bin");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

}  // namespace
}  // namespace opim
