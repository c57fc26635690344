/// \file serving.cpp
/// \brief The serving stages of a workload: build and save a snapshot of
/// the serving operator plus its hierarchy, open it into a serve::Service,
/// and serve an open loop of seeded Poisson arrivals.
///
/// One generating thread enqueues requests at their due times, whatever the
/// state of the queue (independent users, so an open loop); nproc-1
/// persistent worker threads take them in order and call Service::solve.
/// Latency runs from a request's due time to its completion, so a stall
/// also charges the requests queued behind it.
///
/// Traffic comes in segments of requests at one offered rate. The two fixed
/// rates alternate in short segments for several cycles, so their samples
/// spread over the whole phase; then the rate ladder is climbed six times in
/// segments of kRungSeconds, long enough for an overload to build a queue,
/// each climb stopping at the first rate that fails the limit. In the middle of
/// every segment a Service::customize enters the same queue as a write
/// among the reads. Requests are pinned to the epoch published before their
/// segment began, so the combined digest does not depend on scheduling and
/// a customize publishes before the requests that use its epoch arrive, as
/// a depth-1 customize pipeline does; the swap still costs the pool's level
/// adoptions and a busy worker.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.hpp"
#include "check/validate.hpp"
#include "harness.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "random/hash.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {

using namespace parmis;

namespace {

/// Fixed offered rates (requests/s) and the latency limit of the ladder.
constexpr double kLowRate = 40.0;
constexpr double kHighRate = 100.0;
constexpr double kLatencyLimitMs = 50.0;
/// The backlog grows when the queue is deeper over the last quarter of a
/// segment's enqueues than over the first by more than this many requests
/// per worker.
constexpr double kGrowthLimit = 2.0;
/// Requests per fixed-rate segment; the low rate's segments take 1.25 s.
constexpr std::size_t kLowSegment = 50;
constexpr std::size_t kHighSegment = 60;
/// The ladder for max_rate_rps: kHighRate * kLadderStep^k for kFirstRung <=
/// k < kLadderRungs; the pooled low- and high-rate samples come before its
/// first rung, and each rung lasts kRungSeconds. The ladder is climbed
/// kLadderClimbs times.
constexpr double kLadderStep = 1.15;
constexpr int kFirstRung = 5;
constexpr int kLadderRungs = 20;
constexpr double kRungSeconds = 0.4;
constexpr int kLadderClimbs = 6;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples of one offered rate, pooled over its segments.
struct RateStats {
  double rate = 0;
  std::vector<double> latency_ms;  ///< +inf for a failed request
  std::vector<double> queue_ms;
  std::vector<double> call_ms;
  double backlog_max = 0;
  /// Per segment: how much deeper the queue was over the last quarter of
  /// enqueues than over the first, in requests per worker.
  std::vector<double> growth;
  std::vector<std::size_t> segment_ends;  ///< latency_ms index where each segment ends
  std::int64_t failed = 0;

  [[nodiscard]] double p(double q) const { return quantile(latency_ms, q); }
  /// Median over segments of each segment's q-quantile: a burst of outside
  /// load that stalls a few segments moves it less than the pooled one.
  [[nodiscard]] double segment_median(double q) const {
    std::vector<double> per_segment;
    std::size_t begin = 0;
    for (std::size_t end : segment_ends) {
      per_segment.push_back(quantile(
          std::vector<double>(latency_ms.begin() + static_cast<std::ptrdiff_t>(begin),
                              latency_ms.begin() + static_cast<std::ptrdiff_t>(end)),
          q));
      begin = end;
    }
    return median(per_segment);
  }
  /// How far the rate is from the ladder's limit: above 1 when p95 exceeds
  /// the latency limit or the backlog grows, infinite when a request failed.
  [[nodiscard]] double load_score() const {
    if (failed != 0) return INFINITY;
    return std::max(p(0.95) / kLatencyLimitMs, median(growth) / kGrowthLimit);
  }
  [[nodiscard]] bool passes() const { return load_score() <= 1.0; }
};

/// The worker pool and queue of the open loop.
class OpenLoop {
 public:
  OpenLoop(serve::Service& svc, int workers, const std::vector<std::vector<scalar_t>>& values)
      : svc_(svc), values_(values) {
    for (int w = 0; w < workers; ++w) threads_.emplace_back([this] { work(); });
  }
  ~OpenLoop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& th : threads_) th.join();
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Serve `count` Poisson arrivals at `rate` drawn from `seed`, with a
  /// customize before the middle request, into `out`. Returns when every
  /// item has completed; `digest` gets the segment's solution digests in
  /// request order.
  void segment(double rate, std::size_t count, std::uint64_t seed, RateStats& out,
               std::vector<double>& customize_ms, std::vector<double>& gen_lag_ms,
               std::uint64_t& digest);

 private:
  struct Item {
    bool customize = false;
    std::size_t index = 0;
    Clock::time_point due;
    serve::ServeRequest req;
  };
  struct Slot {
    double latency_ms = INFINITY;
    double queue_ms = 0;
    double call_ms = 0;
    std::uint64_t digest = 0;
  };

  void work();
  void run(const Item& it, std::vector<scalar_t>& x, std::vector<scalar_t>& b,
           std::vector<scalar_t>& r);

  serve::Service& svc_;
  const std::vector<std::vector<scalar_t>>& values_;
  std::uint64_t customize_epoch_ = 0;  ///< epoch the segment's customize must publish
  std::size_t customizes_ = 0;
  double customize_ms_ = 0;
  bool customize_ok_ = false;
  std::vector<Slot> slots_;

  std::mutex mu_;
  std::condition_variable cv_;       ///< work queued or closed
  std::condition_variable done_cv_;  ///< outstanding reached zero
  std::deque<const Item*> queue_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

void OpenLoop::work() {
  const std::size_t n = static_cast<std::size_t>(svc_.current()->a->num_rows);
  std::vector<scalar_t> x(n);
  std::vector<scalar_t> b(n);
  std::vector<scalar_t> r;
  for (;;) {
    const Item* it = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;
      it = queue_.front();
      queue_.pop_front();
    }
    run(*it, x, b, r);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    done_cv_.notify_all();
  }
}

void OpenLoop::run(const Item& it, std::vector<scalar_t>& x, std::vector<scalar_t>& b,
                   std::vector<scalar_t>& r) {
  const Clock::time_point start = Clock::now();
  if (it.customize) {
    bool ok = false;
    try {
      ok = svc_.customize(values_[customizes_ % values_.size()]) == customize_epoch_;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "customize threw: %s\n", e.what());
    }
    customize_ms_ = ms_between(start, Clock::now());
    customize_ok_ = ok;
    return;
  }
  Slot& slot = slots_[it.index];
  try {
    const serve::RequestOutcome out = svc_.solve(it.req, x);
    const Clock::time_point done = Clock::now();
    // The true residual against the operator of the pinned epoch. The check
    // runs serially: a worker is a fresh thread whose default context is
    // OpenMP on every core, and the benchmark's own check must not load
    // the machine. The request itself runs in the program's default.
    const Context::Scope serial(Context::serial());
    const std::shared_ptr<const serve::ServingState> st = svc_.state(out.epoch);
    solver::random_fill(b, it.req.rhs_seed);
    if (out.converged && out.epoch == it.req.epoch &&
        true_residual(*st->a, b, x, r) <= kResidualLimit) {
      slot.latency_ms = ms_between(it.due, done);
      slot.queue_ms = ms_between(it.due, start);
      slot.call_ms = ms_between(start, done);
      slot.digest = out.solution_digest;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %zu threw: %s\n", it.index, e.what());
  }
}

void OpenLoop::segment(double rate, std::size_t count, std::uint64_t seed, RateStats& out,
                       std::vector<double>& customize_ms, std::vector<double>& gen_lag_ms,
                       std::uint64_t& digest) {
  const std::uint64_t epoch = svc_.epoch();
  customize_epoch_ = epoch + 1;
  slots_.assign(count, Slot{});

  std::vector<Item> items;
  items.reserve(count + 1);
  rng::SplitMix64 gen(seed);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(gen.next() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate;
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
    if (i == count / 2) items.push_back(Item{true, 0, due, {}});
    serve::ServeRequest req;
    req.id = i;
    req.rhs_seed = rhs_seed(seed, i);
    req.epoch = epoch;
    items.push_back(Item{false, i, due, req});
  }

  std::vector<double> backlog;
  backlog.reserve(items.size());
  for (const Item& it : items) {
    std::this_thread::sleep_until(it.due);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(&it);
      ++outstanding_;
      backlog.push_back(static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
    gen_lag_ms.push_back(ms_between(it.due, Clock::now()));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  ++customizes_;
  customize_ms.push_back(customize_ms_);
  if (!customize_ok_) {
    ++out.failed;
    std::fprintf(stderr, "CHECK FAILED: customize (rate %.0f/s)\n", rate);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Slot& s = slots_[i];
    if (!std::isfinite(s.latency_ms)) {
      ++out.failed;
      std::fprintf(stderr, "CHECK FAILED: served request %zu (rate %.0f/s)\n", i, rate);
    }
    out.latency_ms.push_back(s.latency_ms);
    out.queue_ms.push_back(s.queue_ms);
    out.call_ms.push_back(s.call_ms);
    digest = check::digest_combine(digest, s.digest);
  }
  const std::size_t q = backlog.size() / 4;
  double first = 0;
  double last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += backlog[i];
    last += backlog[backlog.size() - 1 - i];
  }
  out.backlog_max = std::max(out.backlog_max, *std::max_element(backlog.begin(), backlog.end()));
  out.growth.push_back((last - first) / static_cast<double>(q * threads_.size()));
  out.segment_ends.push_back(out.latency_ms.size());
}

serve::Service::Options service_options(int workers) {
  serve::Service::Options o;
  o.pool.solver = "cg";
  o.pool.prec = "amg";
  o.pool.prec_options.amg.coarsener = "mis2";
  o.pool.size = static_cast<std::size_t>(workers);
  o.iter.tolerance = kSolveTolerance;
  o.iter.max_iterations = 500;
  return o;
}

/// Verified snapshot open plus Service construction: the serving set-up.
std::unique_ptr<serve::Service> open_service(const std::string& path, int workers, Tally& t,
                                             std::vector<double>& setup_ms,
                                             std::vector<double>& open_ms) {
  const obs::Timer total;
  std::unique_ptr<serve::Service> s;
  double open = 0;
  bool ok = false;
  try {
    const obs::Span span("bench.serve_setup");
    const obs::Timer ot;
    const serve::SnapshotView snap = serve::SnapshotView::open(path, true);
    open = ot.milliseconds();
    s.reset(new serve::Service(serve::Service::from_snapshot(service_options(workers), snap)));
    ok = s->can_rebuild();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapshot open threw: %s\n", e.what());
  }
  const double ms = total.milliseconds();
  if (!t.check(ok, "service set-up from snapshot")) return nullptr;
  setup_ms.push_back(ms);
  open_ms.push_back(open);
  return s;
}

}  // namespace

struct Serving::State {
  const RunConfig& cfg;
  Results& res;
  int workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  std::string path;
  std::vector<double> setup_ms;
  std::vector<double> open_ms;
  std::unique_ptr<serve::Service> svc;
  std::vector<std::vector<scalar_t>> value_sets;
  std::unique_ptr<OpenLoop> loop;
  std::uint64_t seg_seed = 0;
  /// fixed[0] and fixed[1] are the low and the high rate.
  std::vector<RateStats> fixed = std::vector<RateStats>(2);
  int cycles = 0;
  int cycles_done = 0;
  std::vector<std::vector<RateStats>> climbs = std::vector<std::vector<RateStats>>(kLadderClimbs);
  std::vector<double> customize_ms;
  std::vector<double> gen_lag_ms;
  std::uint64_t digest = 0;
  std::size_t requests = 0;

  State(const RunConfig& c, Results& r) : cfg(c), res(r) {}

  void serve_segment(RateStats& rs, std::size_t count, std::uint64_t& seg_digest) {
    loop->segment(rs.rate, count, ++seg_seed, rs, customize_ms, gen_lag_ms, seg_digest);
    res.tally.attempted += static_cast<std::int64_t>(count) + 1;
    requests += count;
  }
};

Serving::Serving(const RunConfig& cfg, const Inputs& in, double seconds, Results& res)
    : s_(std::make_unique<State>(cfg, res)) {
  State& s = *s_;
  Tally& t = res.tally;

  // Offline: the serving operator's hierarchy, with the AMG configuration
  // the pool's preconditioner adopts, saved as a snapshot.
  s.path = cfg.out_dir + "/perfbench-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".snap";
  {
    multilevel::HierarchyHandle h;
    (void)multilevel::Builder(galerkin_options()).build_galerkin(in.serve_a, h);
    const check::Result v = check::validate_hierarchy(h.ops());
    t.check(v.ok, "serving hierarchy: " + v.diagnostic());
    std::vector<double> save_ms;
    for (int i = 0; i < 3; ++i) {
      save_ms.push_back(
          timed_ms("bench.snapshot_save", [&] { serve::save_snapshot(s.path, in.serve_a, &h); }));
    }
    res.metrics.put("serve.snapshot_save_ms", median(save_ms), "ms");
  }

  s.svc = open_service(s.path, s.workers, t, s.setup_ms, s.open_ms);
  if (!s.svc) return;
  s.value_sets = {reweighted_values(in.serve_a, cfg.seed * 2 + 1),
                  reweighted_values(in.serve_a, cfg.seed * 2 + 2)};
  s.fixed[0].rate = kLowRate;
  s.fixed[1].rate = kHighRate;
  // The fixed rates take about 40% of the budget in whole cycles, the
  // ladder climbs most of the rest; the count depends only on `seconds`,
  // so the combined digest repeats.
  const double cycle_s = kLowSegment / kLowRate + kHighSegment / kHighRate;
  s.cycles = std::max(2, static_cast<int>(0.4 * seconds / cycle_s));
  s.seg_seed = cfg.seed * 4096;
  s.loop = std::make_unique<OpenLoop>(*s.svc, s.workers, s.value_sets);

  // Warm every pool entry (preconditioner adoption) before measuring.
  RateStats warm;
  warm.rate = 1000.0;
  std::uint64_t unused = 0;
  s.serve_segment(warm, static_cast<std::size_t>(8 * s.workers), unused);
  t.failed += warm.failed;
  s.customize_ms.clear();
  s.gen_lag_ms.clear();
  s.requests = 0;
}

Serving::~Serving() {
  if (s_->loop) {  // not finished: stop the workers, measure nothing more
    s_->loop.reset();
    std::remove(s_->path.c_str());
  }
}

bool Serving::cycle() {
  State& s = *s_;
  if (!s.loop || s.cycles_done >= s.cycles) return false;
  ++s.cycles_done;
  // One more serving set-up per cycle, so its samples spread too.
  (void)open_service(s.path, s.workers, s.res.tally, s.setup_ms, s.open_ms);
  s.serve_segment(s.fixed[0], kLowSegment, s.digest);
  s.serve_segment(s.fixed[1], kHighSegment, s.digest);
  return true;
}

void Serving::finish() {
  State& s = *s_;
  if (!s.loop) return;
  while (cycle()) {
  }
  // Each climb goes up the ladder while the last rate passed. Where a climb
  // stops depends on timing, so its solutions stay out of the combined
  // digest.
  std::uint64_t ladder_digest = 0;
  for (std::vector<RateStats>& climb : s.climbs) {
    for (int k = kFirstRung;
         k < kLadderRungs && (climb.empty() ? s.fixed[1] : climb.back()).passes(); ++k) {
      RateStats rung;
      rung.rate = kHighRate * std::pow(kLadderStep, k);
      s.serve_segment(rung, static_cast<std::size_t>(std::lround(rung.rate * kRungSeconds)),
                      ladder_digest);
      climb.push_back(std::move(rung));
    }
  }
  s.loop.reset();
  std::remove(s.path.c_str());

  Metrics& m = s.res.metrics;
  const std::vector<RateStats>& fixed = s.fixed;
  std::int64_t failed = fixed[0].failed + fixed[1].failed;
  for (const std::vector<RateStats>& climb : s.climbs) {
    for (const RateStats& rs : climb) failed += rs.failed;
  }
  s.res.tally.failed += failed;
  s.res.digests.emplace_back("serve", s.digest);

  m.put("serve_setup_ms", median(s.setup_ms), "ms");
  m.put("serve.snapshot_open_ms", median(s.open_ms), "ms");
  const char* labels[2] = {"low", "high"};
  for (int i = 0; i < 2; ++i) {
    const std::string l = labels[i];
    const RateStats& rs = fixed[static_cast<std::size_t>(i)];
    m.put("lat_ms_p50." + l, rs.segment_median(0.50), "ms");
    m.put("lat_ms_p95." + l, rs.segment_median(0.95), "ms");
    m.put("serve.call_ms_p50." + l, quantile(rs.call_ms, 0.50), "ms");
    m.put("serve.queue_ms_p95." + l, quantile(rs.queue_ms, 0.95), "ms");
    m.put("serve.backlog_max." + l, rs.backlog_max, "count");
    m.put("serve.samples." + l, static_cast<double>(rs.latency_ms.size()), "count");
  }

  // Per climb: the highest rate, from the low rate up, before the first one
  // that fails the limit. Between that rate and the failing one the figure
  // is interpolated where log(load_score) crosses 0, so it moves smoothly
  // rather than in ladder steps. The metric is the median climb: a burst of
  // outside load stops one climb early, and a lull lets one go too high.
  std::vector<double> climb_rates;
  for (const std::vector<RateStats>& climb : s.climbs) {
    std::vector<const RateStats*> seq = {&fixed[0], &fixed[1]};
    for (const RateStats& rs : climb) seq.push_back(&rs);
    double best = 0;
    double best_score = 0;
    std::string log;
    for (const RateStats* rs : seq) {
      const double score = rs->load_score();
      char buf[80];
      std::snprintf(buf, sizeof buf, " %.0f/s:p95=%.1fms,growth=%.2f", rs->rate, rs->p(0.95),
                    median(rs->growth));
      log += buf;
      if (!rs->passes()) {
        if (best > 0 && best_score > 0 && std::isfinite(score)) {
          const double frac = std::log(1.0 / best_score) / std::log(score / best_score);
          best += std::clamp(frac, 0.0, 1.0) * (rs->rate - best);
        }
        break;
      }
      best = rs->rate;
      best_score = score;
    }
    std::fprintf(stderr, "ladder:%s -> %.1f/s\n", log.c_str(), best);
    climb_rates.push_back(best);
  }
  m.put("max_rate_rps", median(climb_rates), "1/s");

  m.put("customize_ms", median(s.customize_ms), "ms");
  m.put("serve.gen_lag_ms_p95", quantile(s.gen_lag_ms, 0.95), "ms");
  m.put("serve.requests", static_cast<double>(s.requests), "count");
  m.put("serve.failed", static_cast<double>(failed), "count");
  m.put("serve.epochs", static_cast<double>(s.svc->epoch()), "count");
  const serve::PoolStats ps = s.svc->pool().stats();
  m.put("serve.pool_warm_hits", static_cast<double>(ps.warm_hits), "count");
  m.put("serve.pool_level_adoptions", static_cast<double>(ps.level_adoptions), "count");
  m.put("serve.pool_prec_builds", static_cast<double>(ps.prec_builds), "count");
  m.put("serve.pool_cache_hits", static_cast<double>(ps.cache_hits), "count");
  m.put("serve.pool_evictions", static_cast<double>(ps.evictions), "count");
  m.put("serve.workers", s.workers, "count");
}

}  // namespace perfbench
