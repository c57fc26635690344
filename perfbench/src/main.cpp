/// \file main.cpp
/// \brief perfbench: one run of one workload of the whole-stack benchmark.
///
///   perfbench --workload mesh3d|powerlaw --seed N --seconds S --trace 0|1
///             [--small] [--out-dir DIR]
///
/// Untraced (--trace 0): the offline stages in rounds with the serving
/// phase's fixed-rate cycles between them, then the serving rate ladder;
/// tracing stays off. Traced (--trace 1): the per-layer kernels and thread
/// sweep, the offline stages once untraced and once traced (their ratio is
/// trace_overhead_pct), the serving stages traced, and a Chrome trace
/// written to DIR. Self time of the library's own spans comes from the
/// trace.
///
/// Prints one JSON object: the host stamp, every metric with its unit,
/// the output digests, and operations attempted and failed. Exit status 1
/// when any output check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "check/digest.hpp"
#include "harness.hpp"
#include "parallel/context.hpp"

namespace {

using namespace parmis;
using namespace perfbench;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mesh3d|powerlaw --seed N --seconds S\n"
               "          --trace 0|1 [--small] [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--small") {
      cfg.small = true;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value();
    } else {
      usage(argv[0]);
    }
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0)) usage(argv[0]);
  return cfg;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e300";  // a failed sample; the run is already incorrect
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// What the measurements depend on besides the code: results whose stamps
/// differ are not compared.
std::vector<std::pair<std::string, std::string>> host_stamp(const Inputs& in) {
  const Context::Validation v = Context::default_ctx().validate();
  const char* schedules[] = {"static", "edge-balanced", "dynamic"};
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#ifdef PARMIS_CHECK_INVARIANTS
  const bool checks = true;
#else
  const bool checks = false;
#endif
#ifdef PARMIS_OBS_DISABLE
  const bool obs_disabled = true;
#else
  const char* env = std::getenv("PARMIS_OBS_DISABLE");
  const bool obs_disabled = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
#endif
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"omp_threads", std::to_string(v.effective_threads)},
      {"backend", v.effective == par::Backend::OpenMP ? "openmp" : "serial"},
      {"schedule", schedules[static_cast<int>(Context::default_ctx().schedule)]},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"check_invariants", checks ? "on" : "off"},
      {"obs_disable", obs_disabled ? "set" : "unset"},
      {"llc_bytes", std::to_string(llc > 0 ? llc : 0)},
      {"working_set_bytes", std::to_string(static_cast<long long>(matrix_bytes(in.a)))},
      {"serve_working_set_bytes",
       std::to_string(static_cast<long long>(matrix_bytes(in.serve_a)))},
  };
}

struct SpanTime {
  double self_ms = 0;   ///< duration minus what same-thread child spans cover
  double total_ms = 0;  ///< duration
};

/// Time (ms per enclosing benchmark span) of the library spans in `names`,
/// counted only inside benchmark spans named `within`.
std::map<std::string, SpanTime> span_ms(const std::vector<obs::TraceEvent>& events,
                                        const std::vector<std::string>& names,
                                        const char* within) {
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
  for (const obs::TraceEvent& e : events) {
    if (e.dur_ns >= 0) by_tid[e.tid].push_back(&e);
  }
  std::map<std::string, SpanTime> total;
  for (const std::string& n : names) total[n] = SpanTime{};
  std::size_t enclosing = 0;
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const obs::TraceEvent* x, const obs::TraceEvent* y) {
      return x->start_ns != y->start_ns ? x->start_ns < y->start_ns : x->dur_ns > y->dur_ns;
    });
    struct Open {
      const obs::TraceEvent* ev;
      std::int64_t child_ns;
      bool inside;  ///< under a `within` span
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      if (o.inside && total.count(o.ev->name)) {
        SpanTime& st = total[o.ev->name];
        st.self_ms += static_cast<double>(o.ev->dur_ns - o.child_ns) / 1e6;
        st.total_ms += static_cast<double>(o.ev->dur_ns) / 1e6;
      }
      if (!stack.empty()) stack.back().child_ns += o.ev->dur_ns;
    };
    for (const obs::TraceEvent* e : evs) {
      while (!stack.empty() && stack.back().ev->start_ns + stack.back().ev->dur_ns <= e->start_ns) {
        const Open o = stack.back();
        stack.pop_back();
        close(o);
      }
      const bool is_within = std::strcmp(e->name, within) == 0;
      if (is_within) ++enclosing;
      stack.push_back(Open{e, 0, is_within || (!stack.empty() && stack.back().inside)});
    }
    while (!stack.empty()) {
      const Open o = stack.back();
      stack.pop_back();
      close(o);
    }
  }
  const double per = static_cast<double>(std::max<std::size_t>(1, enclosing));
  for (auto& [name, st] : total) {
    st.self_ms /= per;
    st.total_ms /= per;
  }
  return total;
}

/// Per-operation cost of the offline stages: the sum of their medians (ms).
double offline_cost_ms(const Metrics& m) {
  return m.get("setup_s") * 1e3 + m.get("coarsen_ms") + m.get("solve_ms_p50") +
         8e3 / m.get("batch_solves_per_s") + m.get("rebuild_ms");
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  Inputs in;
  try {
    in = make_inputs(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Results res;
  std::string trace_path;
  try {
    // The serving phase's fixed-rate cycles run between the offline rounds,
    // so the samples of every stage spread over the whole run.
    if (!cfg.trace) {
      Serving serving(cfg, in, 0.6 * cfg.seconds, res);
      run_offline(cfg, in, 0.4 * cfg.seconds, res, [&] { (void)serving.cycle(); });
      serving.finish();
    } else {
      obs::set_tracing(true);
      run_layers(cfg, in, res);
      obs::set_tracing(false);
      Results untraced;
      run_offline(cfg, in, 0.2 * cfg.seconds, untraced);
      obs::set_tracing(true);
      Serving serving(cfg, in, 0.35 * cfg.seconds, res);
      run_offline(cfg, in, 0.2 * cfg.seconds, res, [&] { (void)serving.cycle(); });
      serving.finish();
      obs::set_tracing(false);
      res.tally.attempted += untraced.tally.attempted;
      res.tally.failed += untraced.tally.failed;
      const double overhead = offline_cost_ms(res.metrics) / offline_cost_ms(untraced.metrics);
      res.metrics.put("trace_overhead_pct", 100.0 * (overhead - 1), "%");
      const std::vector<obs::TraceEvent> events = obs::collect_events();
      const std::map<std::string, SpanTime> spans =
          span_ms(events,
                  {"multilevel.triple_product", "multilevel.aggregate_galerkin", "mis2.run"},
                  "bench.amg_setup");
      for (const auto& [name, st] : spans) {
        res.metrics.put(name + ".self_ms", st.self_ms, "ms");
        res.metrics.put(name + ".ms", st.total_ms, "ms");
      }
      res.metrics.put("trace.events", static_cast<double>(events.size()), "count");
      res.metrics.put("trace.dropped", static_cast<double>(obs::dropped_events()), "count");
      trace_path =
          cfg.out_dir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
      if (!obs::write_chrome_trace(trace_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
        trace_path.clear();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    res.tally.check(false, std::string("uncaught: ") + e.what());
  }
  res.metrics.put("solver.attempted", static_cast<double>(res.tally.attempted), "count");
  res.metrics.put("solver.failed", static_cast<double>(res.tally.failed), "count");

  std::string out = "{\"workload\": " + json_string(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"trace\": " + (cfg.trace ? "1" : "0") +
                    ", \"small\": " + (cfg.small ? "true" : "false") + ", \"host\": {";
  const auto stamp = host_stamp(in);
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    out += (i ? ", " : "") + json_string(stamp[i].first) + ": " + json_string(stamp[i].second);
  }
  out += "}, \"metrics\": {";
  const auto& entries = res.metrics.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += (i ? ", " : "") + json_string(entries[i].name) + ": {\"value\": " +
           json_number(entries[i].value) + ", \"unit\": " + json_string(entries[i].unit) + "}";
  }
  out += "}, \"digests\": {";
  for (std::size_t i = 0; i < res.digests.size(); ++i) {
    out += (i ? ", " : "") + json_string(res.digests[i].first) + ": " +
           json_string(check::digest_hex(res.digests[i].second));
  }
  out += "}, \"trace_file\": " + json_string(trace_path) +
         ", \"attempted\": " + std::to_string(res.tally.attempted) +
         ", \"failed\": " + std::to_string(res.tally.failed) + "}";
  std::printf("%s\n", out.c_str());
  return res.tally.failed == 0 ? 0 : 1;
}
