#include "dse/driver.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "daemon/protocol.h"
#include "dse/aggregate.h"
#include "dse/ledger.h"
#include "dse/orchestrator.h"
#include "dse/point_gen.h"
#include "dse/sweep_spec.h"

namespace fs = std::filesystem;

namespace sst::dse {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SweepError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) throw SweepError("cannot write '" + path + "'");
}

/// Executes the orchestrate + aggregate + report tail shared by run and
/// resume.  `spec` must already have its model path resolved.
int execute(const SweepSpec& spec, const std::string& out_dir, bool quiet,
            const std::string& daemon_socket, std::ostream& out,
            std::ostream& err) {
  const sdl::JsonValue base_model =
      sdl::JsonValue::parse(read_file(spec.model_path));
  validate_axes(spec, base_model);
  const std::vector<Point> points = generate_points(spec);

  Ledger ledger(out_dir + "/ledger.jsonl");
  ledger.load(spec.name, points.size());

  OrchestratorOptions orch;
  orch.out_dir = out_dir;
  orch.verbose = !quiet;
  orch.daemon_socket = daemon_socket;
  const OrchestratorSummary summary =
      run_points(spec, points, base_model, ledger, orch);

  std::vector<PointResult> rows =
      collect_results(spec, points, ledger, out_dir);
  compute_pareto(spec, rows);
  {
    std::ofstream csv(out_dir + "/results.csv");
    write_results_csv(spec, rows, csv);
    std::ofstream jsonl(out_dir + "/results.jsonl");
    write_results_jsonl(spec, rows, jsonl);
    if (!csv || !jsonl) {
      err << "cannot write results table under " << out_dir << "\n";
      return kSweepExitFailed;
    }
  }
  write_report(spec, rows, out);
  out << "results: " << out_dir << "/results.csv\n";
  return summary.failed == 0 ? kSweepExitOk : kSweepExitFailed;
}

/// The spec archived in a sweep directory by `run`.
SweepSpec archived_spec(const std::string& out_dir) {
  const std::string spec_file = out_dir + "/sweep.json";
  if (!fs::exists(spec_file)) {
    throw SweepError("no sweep.json under '" + out_dir +
                     "' (was this directory created by 'run'?)");
  }
  return SweepSpec::from_json_text(read_file(spec_file), out_dir);
}

/// Runs `body`, reporting daemon and configuration errors as `what`
/// failures with their exit codes.
template <typename Body>
int guarded(const char* what, std::ostream& err, Body&& body) {
  try {
    return body();
  } catch (const daemon::DaemonError& e) {
    err << what << " failed: " << e.what() << "\n";
    return kSweepExitDaemon;
  } catch (const ConfigError& e) {
    err << what << " failed: " << e.what() << "\n";
    return kSweepExitConfig;
  }
}

}  // namespace

SweepSpec load_spec(const std::string& path) {
  return SweepSpec::from_json_text(read_file(path),
                                   fs::path(path).parent_path().string());
}

int run_sweep(const DriverOptions& options, std::ostream& out,
              std::ostream& err) {
  return guarded("sweep", err, [&] {
    SweepSpec spec = load_spec(options.spec_path);
    if (options.jobs > 0) spec.run.concurrency = options.jobs;

    std::string out_dir = options.out_dir;
    if (out_dir.empty()) {
      out_dir = fs::path(options.spec_path).stem().string() + ".sweep";
    }
    fs::create_directories(out_dir);

    // Make the directory self-contained: copy the base model in and
    // rewrite the spec to reference the copy, so resume works after the
    // original spec file moves or changes.
    write_file(out_dir + "/model.json", read_file(spec.model_path));
    spec.model_path = out_dir + "/model.json";
    SweepSpec archived = spec;
    archived.model_path = "model.json";  // relative to the sweep dir
    write_file(out_dir + "/sweep.json", archived.to_json().dump(2) + "\n");

    return execute(spec, out_dir, options.quiet, options.daemon_socket, out,
                   err);
  });
}

int resume_sweep(const std::string& out_dir, unsigned jobs, bool quiet,
                 std::ostream& out, std::ostream& err,
                 const std::string& daemon_socket) {
  return guarded("resume", err, [&] {
    SweepSpec spec = archived_spec(out_dir);
    if (jobs > 0) spec.run.concurrency = jobs;
    return execute(spec, out_dir, quiet, daemon_socket, out, err);
  });
}

int report_sweep(const std::string& out_dir, std::ostream& out,
                 std::ostream& err) {
  return guarded("report", err, [&] {
    const SweepSpec spec = archived_spec(out_dir);
    const std::vector<Point> points = generate_points(spec);
    Ledger ledger(out_dir + "/ledger.jsonl");
    ledger.load(spec.name, points.size());
    std::vector<PointResult> rows =
        collect_results(spec, points, ledger, out_dir);
    compute_pareto(spec, rows);
    write_report(spec, rows, out);
    return kSweepExitOk;
  });
}

}  // namespace sst::dse
