// perfbench: the measuring program behind perfbench/run.py.
//
// Runs the tuning sessions of one benchmark workload through the library's
// public entry point, TuningSession::run, checks every session's output,
// and prints one JSON record per line for run.py to aggregate. Lines that
// start with '#' are notes for the reader. Modes:
//
//   perfbench setup     --workload W --seed N --dir D --expected F
//   perfbench run       --workload W --seed N --dir D --expected F --seconds S
//   perfbench trace     --workload W --seed N --dir D --expected F
//   perfbench reference
//
// setup      builds everything a pass needs, prints how long that took, and
//            exits.
// run        repeats untraced passes over all sessions for S seconds.
// trace      one untraced pass, one traced pass, then per-layer numbers
//            measured by calling each module's public functions from here.
// reference  runs the serial in-process sessions that define the pinned
//            references, in the expected-file format.
//
// The sessions tune with the paper protocol's fixed seed; --seed N sets the
// order the sessions run in and the fresh seeds of the independent
// re-simulation check.
//
// The workloads, metrics and checks are described in perfbench/README.md.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flags/hierarchy.hpp"
#include "flags/parse.hpp"
#include "flags/validate.hpp"
#include "harness/journal.hpp"
#include "harness/runner.hpp"
#include "harness/sandbox.hpp"
#include "harness/store.hpp"
#include "jvmsim/params.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/search_space.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace fs = std::filesystem;
using namespace jat;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- workloads -------------------------------------------------------------

/// Every session's tuning seed: the one bench_t2_specjvm and
/// bench_t3_dacapo use, so the pinned references are the paper numbers.
constexpr std::uint64_t kSessionSeed = 2015;
/// Trailing rows the expected file keeps per non-strict session, so the
/// first row that differs can be shown without a serial re-run.
constexpr std::size_t kTailRows = 16;
/// Committed rows the traced run replays through the layers, in all.
constexpr std::size_t kReplayRows = 1600;
/// Repetitions per configuration in the independent re-simulation check.
constexpr int kCheckReps = 10;

enum class TunerKind { kHierarchical, kRandom };

const char* tuner_label(TunerKind kind) {
  return kind == TunerKind::kHierarchical ? "hierarchical" : "random";
}

std::unique_ptr<SearchStrategy> make_strategy(TunerKind kind) {
  if (kind == TunerKind::kHierarchical) {
    return std::make_unique<HierarchicalTuner>();
  }
  return std::make_unique<RandomSearch>();
}

struct SessionPlan {
  std::string key;  ///< "<tuner>/<workload>": the expected-file key
  WorkloadSpec workload;
  TunerKind tuner = TunerKind::kHierarchical;
  SessionOptions options;  ///< journal/store/trace are attached per pass
};

struct WorkloadPlan {
  std::string name;
  /// Digests and improvements must equal the pinned serial references;
  /// otherwise a differing digest is reported as a divergence.
  bool strict = true;
  /// Journal, store and sandbox workers live in a fresh per-pass directory.
  bool durable = false;
  std::vector<SessionPlan> sessions;
};

void add_sessions(std::vector<SessionPlan>& out,
                  const std::vector<WorkloadSpec>& suite, TunerKind tuner,
                  std::uint64_t seed, std::size_t eval_threads) {
  for (const WorkloadSpec& workload : suite) {
    SessionPlan plan;
    plan.key = std::string(tuner_label(tuner)) + "/" + workload.name;
    plan.workload = workload;
    plan.tuner = tuner;
    plan.options.seed = seed;
    plan.options.eval_threads = eval_threads;
    if (tuner == TunerKind::kRandom) {
      plan.options.budget = SimTime::minutes(1000);
    } else if (workload.suite == "dacapo") {
      // The T3 protocol (bench_t3_dacapo): 200 minutes minimum, longer
      // programs get proportionally longer budgets.
      plan.options.budget =
          SimTime::minutes(200) * std::max(1.0, workload.total_work / 6000.0);
    } else {
      plan.options.budget = SimTime::minutes(200);
    }
    out.push_back(std::move(plan));
  }
}

WorkloadPlan make_plan(const std::string& name) {
  const std::uint64_t seed = kSessionSeed;
  WorkloadPlan plan;
  plan.name = name;
  if (name == "paper-serial") {
    add_sessions(plan.sessions, specjvm2008_startup(),
                 TunerKind::kHierarchical, seed, 0);
    add_sessions(plan.sessions, dacapo(), TunerKind::kHierarchical, seed, 0);
  } else if (name == "dacapo-random-4t") {
    plan.strict = false;
    add_sessions(plan.sessions, dacapo(), TunerKind::kRandom, seed, 4);
  } else if (name == "specjvm-durable-2t") {
    plan.durable = true;
    add_sessions(plan.sessions, specjvm2008_startup(),
                 TunerKind::kHierarchical, seed, 2);
    for (SessionPlan& s : plan.sessions) {
      s.options.sandbox = true;
      s.options.sandbox_options.workers = 2;
    }
  } else if (name == "reference") {
    add_sessions(plan.sessions, specjvm2008_startup(),
                 TunerKind::kHierarchical, seed, 0);
    add_sessions(plan.sessions, dacapo(), TunerKind::kHierarchical, seed, 0);
    add_sessions(plan.sessions, dacapo(), TunerKind::kRandom, seed, 0);
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (paper-serial, dacapo-random-4t, "
                             "specjvm-durable-2t)");
  }
  return plan;
}

/// Puts the sessions in the order --seed gives (Fisher-Yates).
void shuffle_sessions(WorkloadPlan& plan, std::uint64_t seed) {
  std::vector<SessionPlan>& s = plan.sessions;
  for (std::size_t i = s.size(); i > 1; --i) {
    const std::size_t j = mix64(seed, i) % i;
    std::swap(s[i - 1], s[j]);
  }
}

/// The same session, serial and in-process: what the references pin.
SessionOptions serial_options(const SessionOptions& options) {
  SessionOptions serial = options;
  serial.eval_threads = 0;
  serial.sandbox = false;
  serial.journal = nullptr;
  serial.store = nullptr;
  serial.trace = nullptr;
  return serial;
}

RunnerOptions runner_options(const SessionOptions& options) {
  RunnerOptions r;
  r.repetitions = options.repetitions;
  r.seed = options.seed;
  r.per_run_overhead_s = options.per_run_overhead_s;
  r.racing_factor = options.racing_factor;
  r.policy = options.measurement;
  r.objective = options.objective;
  return r;
}

// ---- digests and references ------------------------------------------------

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Rolling digest over the first `count` committed rows in order:
/// fingerprint, objective bits, phase and stop reason.
std::uint64_t trajectory_digest(const std::vector<EvalRecord>& rows,
                                std::size_t count = SIZE_MAX) {
  std::uint64_t h = fnv1a64("perfbench.trajectory.v1");
  for (std::size_t i = 0; i < std::min(count, rows.size()); ++i) {
    const EvalRecord& r = rows[i];
    h = mix64(h, r.fingerprint);
    h = mix64(h, double_bits(r.objective_ms));
    h = mix64(h, fnv1a64(r.phase));
    h = mix64(h, static_cast<std::uint64_t>(r.stop));
  }
  return h;
}

bool same_row(const EvalRecord& a, const EvalRecord& b) {
  return a.fingerprint == b.fingerprint &&
         double_bits(a.objective_ms) == double_bits(b.objective_ms) &&
         a.phase == b.phase && a.stop == b.stop;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string describe_row(const EvalRecord& r, bool with_budget) {
  return "fingerprint=" + fingerprint_hex(r.fingerprint) +
         " objective_ms=" + exact(r.objective_ms) + " phase=" + r.phase +
         " stop=" + to_string(r.stop) +
         (with_budget ? " budget_s=" + exact(r.budget_spent.as_seconds()) : "");
}

/// The first row where `got` departs from `want`, whose first `offset`
/// rows are not held (they are known to equal got's). Tail rows from the
/// expected file carry no budget position.
std::string first_difference(const std::vector<EvalRecord>& got,
                             const std::vector<EvalRecord>& want,
                             std::size_t offset, std::size_t want_rows) {
  const bool want_budget = offset == 0;
  for (std::size_t i = offset; i < std::min(got.size(), want_rows); ++i) {
    const EvalRecord& b = want[i - offset];
    if (!same_row(got[i], b)) {
      return "first differing row " + std::to_string(i) + " of " +
             std::to_string(got.size()) + " (serial " +
             std::to_string(want_rows) + "): this run " + describe_row(got[i], true) +
             " | serial " + describe_row(b, want_budget);
    }
  }
  return "rows 0.." + std::to_string(std::min(got.size(), want_rows)) +
         " equal; this run has " + std::to_string(got.size()) + " rows, serial " +
         std::to_string(want_rows);
}

struct Reference {
  std::string digest;
  std::int64_t rows = 0;
  std::string improvement;
  /// Non-strict sessions: the digest of all but the last tail.size() rows,
  /// and those rows themselves (budget_spent is not kept).
  std::string prefix_digest;
  std::vector<EvalRecord> tail;
};

/// "fingerprint:objective-bits:stop:phase" per row, comma-separated.
std::string encode_rows(const std::vector<EvalRecord>& rows, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < rows.size(); ++i) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "%016llx:%016llx:%d:",
                  static_cast<unsigned long long>(rows[i].fingerprint),
                  static_cast<unsigned long long>(double_bits(rows[i].objective_ms)),
                  static_cast<int>(rows[i].stop));
    if (!out.empty()) out += ",";
    out += buf + rows[i].phase;
  }
  return out;
}

std::vector<EvalRecord> decode_rows(const std::string& text) {
  std::vector<EvalRecord> rows;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    EvalRecord r;
    unsigned long long fp = 0, bits = 0;
    int stop = 0;
    int consumed = 0;
    if (std::sscanf(token.c_str(), "%16llx:%16llx:%d:%n", &fp, &bits, &stop,
                    &consumed) != 3) {
      throw std::runtime_error("malformed row in expected file: " + token);
    }
    r.fingerprint = fp;
    std::memcpy(&r.objective_ms, &bits, sizeof bits);
    r.stop = static_cast<StopReason>(stop);
    r.phase = token.substr(static_cast<std::size_t>(consumed));
    rows.push_back(std::move(r));
  }
  return rows;
}

using References = std::map<std::string, Reference>;

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected file " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    Reference ref;
    std::string tail;
    if (!(fields >> key >> ref.digest >> ref.rows >>
          ref.improvement >> ref.prefix_digest >> tail)) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    if (tail != "-") ref.tail = decode_rows(tail);
    refs[key] = ref;
  }
  return refs;
}

// ---- process helpers -------------------------------------------------------

struct CpuSample {
  double self_s = 0;
  double children_s = 0;
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

CpuSample cpu_now() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return {tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime),
          tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime)};
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Processes whose parent is this process (live or unreaped).
std::vector<int> live_children() {
  std::vector<int> out;
  const int self = static_cast<int>(::getpid());
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    if (!std::getline(stat, text)) continue;
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 1));
    std::string state;
    int ppid = 0;
    if (rest >> state >> ppid && ppid == self) out.push_back(std::stoi(name));
  }
  return out;
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x6969UL: return "nfs";
    case 0x01021997UL: return "9p";
    case 0x65735546UL: return "fuse";
    case 0xF2F52010UL: return "f2fs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

/// A fresh directory under `parent`, removed (with everything in it) on
/// destruction. While a RunDir is entered, it is the working directory,
/// so forked sandbox workers start there too.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string pattern = fs::absolute(parent).string() + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent + ": " +
                               std::strerror(errno));
    }
    path_ = pattern;
    previous_ = fs::current_path();
    fs::current_path(path_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::current_path(previous_, ec);
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  fs::path previous_;
};

std::string file_stem(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    if (c == '/') c = '_';
  }
  return out;
}

// ---- JSON output -----------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return exact(v);
}

// ---- tracing decorators ----------------------------------------------------

/// Times the strategy's ask/tell calls and each proposal's window (ask()
/// returning it to its tell()), and the search's wall and CPU time. The
/// name is forwarded: the session derives its RNG stream from it.
class TimedStrategy : public SearchStrategy {
 public:
  explicit TimedStrategy(SearchStrategy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  void begin(StrategyContext& ctx) override {
    SearchStrategy::begin(ctx);
    begin_ = Clock::now();
    cpu_begin_ = cpu_now().self_s;
    inner_.begin(ctx);
  }

  void ask(std::vector<Proposal>& out, std::size_t max) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_.ask(out, max);
    const auto t1 = Clock::now();
    ask_us.push_back(micros_between(t0, t1));
    proposals += static_cast<std::int64_t>(out.size() - before);
    asked_at_.resize(asked_at_.size() + (out.size() - before), t1);
  }

  void tell(const Observation& observation) override {
    const auto t0 = Clock::now();
    if (observation.id < asked_at_.size()) {
      window_us.push_back(micros_between(asked_at_[observation.id], t0));
    }
    inner_.tell(observation);
    tell_us.push_back(micros_between(t0, Clock::now()));
  }

  void finish() override {
    inner_.finish();
    search_wall_s = seconds_since(begin_);
    search_cpu_s = cpu_now().self_s - cpu_begin_;
  }

  std::vector<double> ask_us;
  std::vector<double> tell_us;
  std::vector<double> window_us;
  std::int64_t proposals = 0;
  double search_wall_s = 0;
  double search_cpu_s = 0;  ///< this process only; workers are added later

 private:
  SearchStrategy& inner_;
  Clock::time_point begin_;
  double cpu_begin_ = 0;
  std::vector<Clock::time_point> asked_at_;
};

/// Times every measure() call through the chain below it.
class TimedEvaluator : public Evaluator {
 public:
  explicit TimedEvaluator(Evaluator& inner) : inner_(inner) {}
  Measurement measure(const Configuration& config, BudgetClock* budget,
                      const EvalHints& hints) override {
    const auto t0 = Clock::now();
    Measurement m = inner_.measure(config, budget, hints);
    last_us = micros_between(t0, Clock::now());
    return m;
  }
  using Evaluator::measure;
  double last_us = 0;

 private:
  Evaluator& inner_;
};

// ---- one pass ----------------------------------------------------------------

struct SessionRun {
  const SessionPlan* plan = nullptr;
  bool threw = false;
  std::string error;
  std::optional<TuningOutcome> outcome;  /// empty when the session threw
  std::vector<EvalRecord> rows;
  std::uint64_t digest = 0;
  double children_cpu_s = 0;  ///< reaped sandbox workers
  std::vector<int> leftover_workers;
  bool failed = false;
  bool diverged = false;
  std::vector<std::string> reasons;
  // traced passes only
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<TimedStrategy> timed;
};

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::string fs_type;
  std::vector<SessionRun> sessions;
};

Pass run_pass(const WorkloadPlan& plan, const JvmSimulator& simulator,
              const std::string& run_parent, bool traced) {
  Pass pass;
  pass.sessions.resize(plan.sessions.size());
  std::optional<RunDir> dir;
  if (plan.durable) {
    dir.emplace(run_parent);
    pass.fs_type = filesystem_type(dir->path());
  }
  const CpuSample cpu0 = cpu_now();
  const auto t0 = Clock::now();
  std::shared_ptr<ResultStore> store;
  if (plan.durable) store = ResultStore::open(dir->path() + "/store");
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionPlan& sp = plan.sessions[i];
    SessionRun& run = pass.sessions[i];
    run.plan = &sp;
    SessionOptions options = sp.options;
    std::optional<SessionJournal> journal;
    if (plan.durable) {
      journal.emplace(SessionJournal::create(dir->path() + "/" +
                                             file_stem(sp.key) + ".journal"));
      options.journal = &*journal;
      options.store = store;
    }
    std::unique_ptr<SearchStrategy> strategy = make_strategy(sp.tuner);
    SearchStrategy* active = strategy.get();
    if (traced) {
      run.sink = std::make_unique<TraceSink>();
      options.trace = run.sink.get();
      run.timed = std::make_unique<TimedStrategy>(*strategy);
      active = run.timed.get();
    }
    const double children0 = cpu_now().children_s;
    try {
      TuningSession session(simulator, sp.workload, options);
      run.outcome = session.run(*active);
    } catch (const std::exception& e) {
      run.threw = true;
      run.error = e.what();
    }
    run.children_cpu_s = cpu_now().children_s - children0;
    if (plan.durable) run.leftover_workers = live_children();
  }
  store.reset();
  pass.wall_s = seconds_since(t0);
  const CpuSample cpu1 = cpu_now();
  pass.cpu_s = (cpu1.self_s - cpu0.self_s) + (cpu1.children_s - cpu0.children_s);
  dir.reset();
  if (plan.durable) {
    // Whatever outlived its session must not outlive the directory either.
    const std::vector<int> left = live_children();
    for (SessionRun& run : pass.sessions) {
      run.leftover_workers.insert(run.leftover_workers.end(), left.begin(),
                                  left.end());
    }
  }
  for (SessionRun& run : pass.sessions) {
    if (run.threw) continue;
    run.rows = run.outcome->db->all();
    run.digest = trajectory_digest(run.rows);
  }
  return pass;
}

/// Serial in-process re-runs, memoized per process: the rows a diverged
/// session is compared against.
class SerialRows {
 public:
  explicit SerialRows(const JvmSimulator& simulator) : simulator_(simulator) {}
  const std::vector<EvalRecord>& get(const SessionPlan& sp) {
    auto it = rows_.find(sp.key);
    if (it != rows_.end()) return it->second;
    std::unique_ptr<SearchStrategy> strategy = make_strategy(sp.tuner);
    TuningSession session(simulator_, sp.workload, serial_options(sp.options));
    return rows_[sp.key] = session.run(*strategy).db->all();
  }

 private:
  const JvmSimulator& simulator_;
  std::map<std::string, std::vector<EvalRecord>> rows_;
};

/// Where a session departs from its pinned serial reference: from the
/// reference's tail rows when the departure lies inside them, else from a
/// serial re-run.
std::string locate_difference(const SessionRun& run, const Reference& ref,
                              SerialRows& serial) {
  const auto want_rows = static_cast<std::size_t>(ref.rows);
  const std::size_t offset = want_rows - ref.tail.size();
  if (!ref.tail.empty() &&
      fingerprint_hex(trajectory_digest(run.rows, offset)) == ref.prefix_digest) {
    return first_difference(run.rows, ref.tail, offset, want_rows);
  }
  return first_difference(run.rows, serial.get(*run.plan), 0, want_rows);
}

struct Resim {
  double mean_ms = 0;
  bool crashed = false;
  std::string reason;
};

Resim resimulate(const JvmSimulator& simulator, const Configuration& config,
                 const WorkloadSpec& workload, std::uint64_t seed) {
  Resim out;
  double sum = 0;
  for (int k = 0; k < kCheckReps; ++k) {
    const RunResult r =
        simulator.run(config, workload, mix64(seed, static_cast<std::uint64_t>(k)));
    if (r.crashed) {
      out.crashed = true;
      out.reason = r.crash_reason;
      return out;
    }
    sum += r.total_time.as_millis();
  }
  out.mean_ms = sum / kCheckReps;
  return out;
}

/// The output checks, after the timed region: pinned serial references,
/// an independent re-simulation of the winner and the default, and (for
/// durable passes) sandbox worker hygiene.
void check_pass(Pass& pass, const WorkloadPlan& plan, const References& refs,
                const JvmSimulator& simulator, std::uint64_t cli_seed,
                SerialRows& serial) {
  const Configuration defaults(FlagHierarchy::hotspot().registry());
  for (std::size_t i = 0; i < pass.sessions.size(); ++i) {
    SessionRun& run = pass.sessions[i];
    const SessionPlan& sp = *run.plan;
    auto fail = [&run](std::string reason) {
      run.failed = true;
      run.reasons.push_back(std::move(reason));
    };
    if (run.threw) {
      fail("session threw: " + run.error);
      continue;
    }
    if (run.outcome->cancelled) fail("session was cancelled");
    if (!run.leftover_workers.empty()) {
      fail("sandbox worker outlived its session (pid " +
           std::to_string(run.leftover_workers.front()) + ")");
    }
    if (sp.options.sandbox) {
      // Without injected faults no worker may die, so none respawns.
      const FaultStats& f = run.outcome->fault_stats;
      if (f.crashes + f.transient > 0) {
        fail("sandbox worker died and was respawned without injected faults (" +
             f.to_string() + ")");
      }
    }

    const auto ref = refs.find(sp.key);
    if (ref == refs.end()) {
      fail("no pinned reference");
    } else {
      const bool same = fingerprint_hex(run.digest) == ref->second.digest;
      if (!same) {
        if (plan.strict) {
          fail("trajectory digest " + fingerprint_hex(run.digest) +
               " differs from pinned serial " + ref->second.digest);
        } else {
          run.diverged = true;
        }
        run.reasons.push_back(locate_difference(run, ref->second, serial));
      }
      if (plan.strict &&
          exact(run.outcome->improvement_frac()) != ref->second.improvement) {
        fail("improvement " + exact(run.outcome->improvement_frac()) +
             " differs from pinned " + ref->second.improvement);
      }
    }

    // Independent check: fresh seeds, straight into the simulator (no
    // cache, store, sandbox or journal).
    const std::uint64_t seed =
        mix64(fnv1a64("perfbench.check"), mix64(cli_seed, fnv1a64(sp.key)));
    const Resim base = resimulate(simulator, defaults, sp.workload, seed);
    const Resim best =
        resimulate(simulator, run.outcome->best_config, sp.workload, seed);
    if (base.crashed) fail("default configuration crashed: " + base.reason);
    if (best.crashed) fail("reported best configuration crashed: " + best.reason);
    if (!base.crashed && !best.crashed && run.outcome->improvement_frac() > 0 &&
        !(best.mean_ms < base.mean_ms)) {
      fail("claimed improvement " + exact(run.outcome->improvement_frac()) +
           " but re-simulated best " + exact(best.mean_ms) +
           " ms is not faster than default " + exact(base.mean_ms) + " ms");
    }
  }
}

std::string pass_json(const Pass& pass, const WorkloadPlan& plan, bool traced) {
  std::int64_t evaluations = 0;
  std::int64_t runs = 0;
  std::int64_t failed = 0;
  std::int64_t diverged = 0;
  std::string sessions;
  for (const SessionRun& run : pass.sessions) {
    if (run.outcome) {
      evaluations += run.outcome->evaluations;
      runs += run.outcome->runs;
    }
    failed += run.failed ? 1 : 0;
    diverged += run.diverged ? 1 : 0;
    if (!sessions.empty()) sessions += ",";
    sessions += "{\"key\":" + json_string(run.plan->key) +
                ",\"digest\":" + json_string(fingerprint_hex(run.digest)) +
                ",\"rows\":" + std::to_string(run.rows.size()) +
                ",\"improvement\":" +
                json_number(run.outcome ? run.outcome->improvement_frac() : 0.0) +
                ",\"failed\":" + (run.failed ? "true" : "false") +
                ",\"diverged\":" + (run.diverged ? "true" : "false") + "}";
  }
  return std::string("{\"record\":\"pass\",\"traced\":") +
         (traced ? "true" : "false") + ",\"workload\":" + json_string(plan.name) +
         ",\"wall_s\":" + json_number(pass.wall_s) +
         ",\"cpu_s\":" + json_number(pass.cpu_s) +
         ",\"peak_rss_mb\":" + json_number(peak_rss_mb()) +
         ",\"evaluations\":" + std::to_string(evaluations) +
         ",\"runs\":" + std::to_string(runs) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"diverged\":" + std::to_string(diverged) +
         ",\"sessions\":[" + sessions + "]}";
}

void print_notes(const Pass& pass, int index) {
  if (!pass.fs_type.empty() && index == 0) {
    std::printf("# per-pass directory for journal, store and sandbox workers: "
                "filesystem %s\n",
                pass.fs_type.c_str());
  }
  for (const SessionRun& run : pass.sessions) {
    for (const std::string& reason : run.reasons) {
      std::printf("# pass %d %s %s: %s\n", index, run.plan->key.c_str(),
                  run.failed ? "FAILED" : (run.diverged ? "diverged" : "note"),
                  reason.c_str());
    }
  }
  std::fflush(stdout);
}

// ---- per-layer measurements (trace mode) ------------------------------------

struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::int64_t count() const { return static_cast<std::int64_t>(v.size()); }
  double sum() const {
    double s = 0;
    for (double x : v) s += x;
    return s;
  }
  double mean() const { return v.empty() ? 0.0 : sum() / static_cast<double>(v.size()); }
  /// Nearest-rank percentile (q in [0, 1]).
  double quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
};

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;
  std::string detail;
};

std::string ratio_detail(double num, const char* num_label, double den,
                         const char* den_label) {
  return std::string(num_label) + "=" + exact(num) + " / " + den_label + "=" +
         exact(den);
}

/// Everything the per-layer replays record, across a workload's sessions.
struct LayerData {
  Samples run_us;
  std::map<GcAlgorithm, Samples> run_us_by_gc;
  Samples gc_per_run;
  Samples decode_us;
  Samples fingerprint_us;
  Samples render_us;
  Samples parse_us;
  Samples measure_us;
  Samples runner_self_us;
  Samples sandbox_rtt_us;
  Samples journal_append_us;
  Samples store_put_us;
  Samples store_lookup_us;
  double busy_s = 0;  ///< estimated simulator-busy seconds of the sessions
};

/// Replays the first `limit` committed configurations of one traced
/// session, in order, through an evaluation chain composed the way
/// TuningSession composes it (runner, sandbox when the session used one),
/// timing each measure() call, and calls the flags, jvmsim, journal and
/// store layers on every stride-th of them.
void replay_session(const SessionRun& run, const JvmSimulator& simulator,
                    std::size_t limit, std::size_t stride, const std::string& dir,
                    LayerData& out) {
  const SessionPlan& sp = *run.plan;
  const SearchSpace space(FlagHierarchy::hotspot());
  const FlagRegistry& registry = space.registry();
  const RunnerOptions ropts = runner_options(sp.options);
  BenchmarkRunner runner(simulator, sp.workload, ropts);
  Evaluator* chain = &runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (sp.options.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(runner, registry,
                                                   sp.options.sandbox_options);
    sandbox->link_runner(&runner);
    chain = sandbox.get();
  }
  TimedEvaluator timed(*chain);
  auto runs_so_far = [&] {
    return runner.runs_executed() + (sandbox ? sandbox->runs_executed() : 0);
  };

  SessionJournal journal =
      SessionJournal::create(dir + "/" + file_stem(sp.key) + ".layers.journal");
  {
    TuningSession meta_source(simulator, sp.workload, sp.options);
    journal.write_meta(meta_source.journal_meta(run.outcome->tuner_name));
  }
  std::shared_ptr<ResultStore> store =
      ResultStore::open(dir + "/" + file_stem(sp.key) + ".layers.store");
  const std::uint64_t space_fp = space_fingerprint(registry);
  const std::uint64_t workload_fp = workload_fingerprint(sp.workload);
  std::vector<StoreKey> stored;

  std::vector<double> session_run_us;
  BudgetClock budget(sp.options.budget);
  for (std::size_t i = 0; i < std::min(limit, run.rows.size()); ++i) {
    const EvalRecord& row = run.rows[i];
    const Configuration config = parse_command_line(registry, row.command_line);
    const std::int64_t runs_before = runs_so_far();
    const SimTime spent_before = budget.spent();
    const Measurement m = timed.measure(config, &budget);
    const std::int64_t miss_runs = runs_so_far() - runs_before;
    out.measure_us.add(timed.last_us);
    if (i == 0 && m.valid()) {
      // The session's harness time limit, set after its baseline.
      runner.set_time_limit(SimTime::millis(
          static_cast<std::int64_t>(m.summary.mean * 5.0)));
    }
    if (i % stride != 0) continue;

    // flags: the session's own configuration.
    auto t0 = Clock::now();
    const std::uint64_t fp = config.fingerprint();
    auto t1 = Clock::now();
    const std::string rendered = config.render_command_line();
    auto t2 = Clock::now();
    const Configuration parsed = parse_command_line(registry, rendered);
    auto t3 = Clock::now();
    out.fingerprint_us.add(micros_between(t0, t1));
    out.render_us.add(micros_between(t1, t2));
    out.parse_us.add(micros_between(t2, t3));
    if (fp != row.fingerprint || parsed.fingerprint() != fp) {
      throw std::runtime_error("flags round trip changed configuration " +
                               fingerprint_hex(row.fingerprint));
    }

    // jvmsim: the miss's own simulator runs, with the runner's seeds.
    if (miss_runs > 0 && is_startable(config)) {
      t0 = Clock::now();
      const JvmParams params = decode_params(config);
      t1 = Clock::now();
      out.decode_us.add(micros_between(t0, t1));
      double sim_us = 0;
      for (std::int64_t rep = 0; rep < miss_runs; ++rep) {
        const std::uint64_t seed =
            mix64(ropts.seed, mix64(fp, static_cast<std::uint64_t>(rep)));
        t0 = Clock::now();
        const RunResult r = simulator.run(config, sp.workload, seed);
        t1 = Clock::now();
        const double us = micros_between(t0, t1);
        sim_us += us;
        out.run_us.add(us);
        session_run_us.push_back(us);
        out.run_us_by_gc[params.gc.algorithm].add(us);
        out.gc_per_run.add(static_cast<double>(r.young_gc_count + r.full_gc_count));
      }
      out.runner_self_us.add(timed.last_us - sim_us);
    }

    // journal and store: this evaluation's own record.
    const JournalEval rec = make_journal_eval(
        static_cast<std::int64_t>(i), config, m, budget.spent() - spent_before,
        budget.spent(), row.phase);
    t0 = Clock::now();
    journal.append(rec);
    t1 = Clock::now();
    out.journal_append_us.add(micros_between(t0, t1));
    if (m.valid() && (m.stop == StopReason::kFull || m.stop == StopReason::kConverged)) {
      StoreRecord record;
      record.key = StoreKey{space_fp, workload_fp, fp, "run_time"};
      record.workload = sp.workload.name;
      record.command_line = rendered;
      record.objective_value = m.objective(run_time_objective());
      record.times_ms = m.times_ms;
      record.rep_metrics = m.rep_metrics;
      record.stop = m.stop;
      record.failed_reps = m.failed_reps;
      record.seed = ropts.seed;
      stored.push_back(record.key);
      t0 = Clock::now();
      store->put(std::move(record));
      out.store_put_us.add(micros_between(t0, Clock::now()));
    }
  }
  for (const StoreKey& key : stored) {
    const auto t0 = Clock::now();
    const StoreRecord* hit = store->lookup(key);
    out.store_lookup_us.add(micros_between(t0, Clock::now()));
    if (hit == nullptr) throw std::runtime_error("store lost a record it was given");
  }
  if (sandbox) sandbox->shutdown();

  double mean_run_us = 0;
  for (double us : session_run_us) mean_run_us += us;
  if (!session_run_us.empty()) {
    mean_run_us /= static_cast<double>(session_run_us.size());
  } else {
    mean_run_us = out.run_us.mean();
  }
  out.busy_s += static_cast<double>(run.outcome->runs) * mean_run_us / 1e6;
}

/// Round trips of SandboxedEvaluator::measure on a configuration its
/// worker already holds in cache.
void sandbox_round_trips(const SessionPlan& sp, const JvmSimulator& simulator,
                         LayerData& out) {
  const SearchSpace space(FlagHierarchy::hotspot());
  BenchmarkRunner runner(simulator, sp.workload, runner_options(sp.options));
  SandboxOptions options;
  options.workers = 2;
  SandboxedEvaluator sandbox(runner, space.registry(), options);
  sandbox.link_runner(&runner);
  const Configuration defaults(space.registry());
  sandbox.measure(defaults);  // the worker measures and caches it
  for (int i = 0; i < 400; ++i) {
    const auto t0 = Clock::now();
    sandbox.measure(defaults);
    out.sandbox_rtt_us.add(micros_between(t0, Clock::now()));
  }
  sandbox.shutdown();
}

std::vector<LayerMetric> layer_metrics(const WorkloadPlan& plan,
                                       const Pass& traced, double untraced_wall_s,
                                       const LayerData& d) {
  std::vector<LayerMetric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    std::int64_t samples, std::string detail = "") {
    out.push_back({std::move(name), value, std::move(unit), samples,
                   std::move(detail)});
  };
  const auto n_sessions = static_cast<std::int64_t>(traced.sessions.size());

  std::int64_t evaluations = 0, runs = 0, cache_hits = 0, store_appends = 0;
  std::int64_t window_events = 0, cache_hit_events = 0, rep_stop_events = 0;
  double inflight_weighted = 0, dispatched = 0;
  Samples ask_us, tell_us, window_us;
  std::int64_t proposals = 0;
  double search_wall = 0, search_cpu = 0;
  for (const SessionRun& run : traced.sessions) {
    if (run.threw) continue;
    evaluations += run.outcome->evaluations;
    runs += run.outcome->runs;
    cache_hits += run.outcome->cache_hits;
    store_appends += run.outcome->store_appends;
    for (const TraceEvent& e : run.sink->events()) {
      if (e.type == "window") {
        ++window_events;
        const double n = static_cast<double>(e.get_int("dispatched"));
        inflight_weighted += e.get_double("avg_inflight") * n;
        dispatched += n;
      } else if (e.type == "cache_hit") {
        ++cache_hit_events;
      } else if (e.type == "rep_stop") {
        ++rep_stop_events;
      }
    }
    const TimedStrategy& t = *run.timed;
    ask_us.v.insert(ask_us.v.end(), t.ask_us.begin(), t.ask_us.end());
    tell_us.v.insert(tell_us.v.end(), t.tell_us.begin(), t.tell_us.end());
    window_us.v.insert(window_us.v.end(), t.window_us.begin(), t.window_us.end());
    proposals += t.proposals;
    search_wall += t.search_wall_s;
    search_cpu += t.search_cpu_s + run.children_cpu_s;
  }
  std::printf("# trace events: window %lld, cache_hit %lld, rep_stop %lld "
              "(session cache hits %lld)\n",
              static_cast<long long>(window_events),
              static_cast<long long>(cache_hit_events),
              static_cast<long long>(rep_stop_events),
              static_cast<long long>(cache_hits));

  // jvmsim
  add("jvmsim.run_us", d.run_us.quantile(0.5), "us", d.run_us.count(), "median");
  const std::pair<GcAlgorithm, const char*> gcs[] = {
      {GcAlgorithm::kSerial, "serial"},
      {GcAlgorithm::kParallel, "parallel"},
      {GcAlgorithm::kCms, "cms"},
      {GcAlgorithm::kG1, "g1"}};
  for (const auto& [gc, label] : gcs) {
    const auto it = d.run_us_by_gc.find(gc);
    const Samples none;
    const Samples& s = it == d.run_us_by_gc.end() ? none : it->second;
    add(std::string("jvmsim.run_us.") + label, s.quantile(0.5), "us", s.count(),
        "median");
  }
  add("jvmsim.runs", static_cast<double>(runs), "count", n_sessions,
      "simulator runs in the sessions' searches");
  add("jvmsim.busy_s", d.busy_s, "s", d.run_us.count(),
      "session runs x replayed mean run time");
  add("jvmsim.share", d.busy_s / untraced_wall_s, "ratio", d.run_us.count(),
      ratio_detail(d.busy_s, "busy_s", untraced_wall_s, "wall_s"));
  add("jvmsim.gc_per_run", d.gc_per_run.mean(), "count", d.gc_per_run.count(),
      "mean young+full collections per replayed run");
  add("jvmsim.decode_us", d.decode_us.quantile(0.5), "us", d.decode_us.count(),
      "median");

  // flags
  add("flags.fingerprint_us", d.fingerprint_us.quantile(0.5), "us",
      d.fingerprint_us.count(), "median");
  add("flags.render_us", d.render_us.quantile(0.5), "us", d.render_us.count(),
      "median");
  add("flags.parse_us", d.parse_us.quantile(0.5), "us", d.parse_us.count(),
      "median");

  // harness
  add("harness.measure_us_p50", d.measure_us.quantile(0.5), "us",
      d.measure_us.count());
  add("harness.measure_us_p99", d.measure_us.quantile(0.99), "us",
      d.measure_us.count());
  add("harness.measure_calls", static_cast<double>(d.measure_us.count()), "count",
      d.measure_us.count(), "replayed measure() calls");
  add("harness.cache_hit_ratio",
      static_cast<double>(cache_hits) / static_cast<double>(evaluations), "ratio",
      evaluations,
      ratio_detail(static_cast<double>(cache_hits), "cache_hits",
                   static_cast<double>(evaluations), "evaluations"));
  add("harness.runs_per_eval",
      static_cast<double>(runs) / static_cast<double>(evaluations), "ratio",
      evaluations,
      ratio_detail(static_cast<double>(runs), "runs",
                   static_cast<double>(evaluations), "evaluations"));
  add("harness.runner_self_us", d.runner_self_us.quantile(0.5), "us",
      d.runner_self_us.count(), "median per miss: measure minus its simulator runs");
  add("harness.sandbox_rtt_us", d.sandbox_rtt_us.quantile(0.5), "us",
      d.sandbox_rtt_us.count(), "median, worker-cached configuration");
  const double sandbox_s =
      plan.durable ? static_cast<double>(evaluations) * d.sandbox_rtt_us.quantile(0.5) / 1e6
                   : 0.0;
  add("harness.sandbox_share", sandbox_s / untraced_wall_s, "ratio", evaluations,
      ratio_detail(sandbox_s, "sandboxed_evaluations x rtt_s", untraced_wall_s,
                   "wall_s"));
  add("harness.journal_append_us", d.journal_append_us.mean(), "us",
      d.journal_append_us.count(), "mean, default sync policy");
  const double journal_s =
      plan.durable ? static_cast<double>(evaluations) * d.journal_append_us.mean() / 1e6
                   : 0.0;
  add("harness.journal_share", journal_s / untraced_wall_s, "ratio", evaluations,
      ratio_detail(journal_s, "journaled_evaluations x append_s", untraced_wall_s,
                   "wall_s"));
  add("harness.store_put_us", d.store_put_us.mean(), "us", d.store_put_us.count(),
      "mean");
  add("harness.store_lookup_us", d.store_lookup_us.mean(), "us",
      d.store_lookup_us.count(), "mean");
  add("harness.store_appends", static_cast<double>(store_appends), "count",
      n_sessions, "records the sessions published");

  // tuner
  add("tuner.ask_us", ask_us.mean(), "us", ask_us.count(), "mean per ask()");
  add("tuner.tell_us", tell_us.mean(), "us", tell_us.count(), "mean per tell()");
  add("tuner.ask_calls", static_cast<double>(ask_us.count()), "count", n_sessions);
  add("tuner.proposals", static_cast<double>(proposals), "count", n_sessions);
  add("tuner.window_us_p50", window_us.quantile(0.5), "us", window_us.count());
  add("tuner.window_us_p99", window_us.quantile(0.99), "us", window_us.count());
  add("tuner.inflight_avg", dispatched > 0 ? inflight_weighted / dispatched : 0.0,
      "count", window_events, "dispatch-weighted mean of window events");
  const double threads = static_cast<double>(
      std::max<std::size_t>(1, plan.sessions.front().options.eval_threads));
  add("tuner.parallel_eff", search_cpu / (threads * search_wall), "ratio",
      n_sessions,
      ratio_detail(search_cpu, "search_cpu_s", threads * search_wall,
                   "eval_threads x search_wall_s"));
  const double control_s = (ask_us.sum() + tell_us.sum()) / 1e6;
  add("tuner.control_share", control_s / search_wall, "ratio", n_sessions,
      ratio_detail(control_s, "ask_tell_s", search_wall, "search_wall_s"));
  return out;
}

std::string layers_json(const std::vector<LayerMetric>& metrics, double overhead,
                        bool checks_ok) {
  std::string body;
  for (const LayerMetric& m : metrics) {
    if (!body.empty()) body += ",";
    body += "{\"name\":" + json_string(m.name) + ",\"value\":" +
            json_number(m.value) + ",\"unit\":" + json_string(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) +
            ",\"detail\":" + json_string(m.detail) + "}";
  }
  return "{\"record\":\"layers\",\"tracing_overhead\":" + json_number(overhead) +
         ",\"checks_ok\":" + (checks_ok ? "true" : "false") +
         ",\"metrics\":[" + body + "]}";
}

// ---- modes -------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  std::string dir = ".bench_build/perfbench-runs";
  std::string expected;
  double seconds = 10;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench <setup|run|trace|reference> ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--dir") a.dir = value;
    else if (flag == "--expected") a.expected = value;
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else throw std::runtime_error("unknown option " + flag);
  }
  return a;
}

/// What every mode but `reference` needs before its first session.
struct Setup {
  WorkloadPlan plan;
  References refs;
  JvmSimulator simulator;
};

std::unique_ptr<Setup> prepare(const Args& args) {
  auto setup = std::make_unique<Setup>();
  setup->plan = make_plan(args.workload);
  shuffle_sessions(setup->plan, args.seed);
  setup->refs = load_references(args.expected);
  const SearchSpace space(FlagHierarchy::hotspot());
  if (setup->plan.durable) {
    // Open (and drop) what a durable pass opens: directory, store, journal.
    RunDir dir(args.dir);
    ResultStore::open(dir.path() + "/store");
    SessionJournal::create(dir.path() + "/setup.journal");
  }
  return setup;
}

int mode_run(const Args& args) {
  const std::unique_ptr<Setup> setup = prepare(args);
  SerialRows serial(setup->simulator);
  const auto start = Clock::now();
  double slowest = 0;
  for (int index = 0;; ++index) {
    Pass pass = run_pass(setup->plan, setup->simulator, args.dir, false);
    slowest = std::max(slowest, pass.wall_s);
    check_pass(pass, setup->plan, setup->refs, setup->simulator, args.seed, serial);
    print_notes(pass, index);
    std::printf("%s\n", pass_json(pass, setup->plan, false).c_str());
    std::fflush(stdout);
    // Another pass only when it fits in the measuring time.
    if (seconds_since(start) + slowest > args.seconds) break;
  }
  return 0;
}

int mode_trace(const Args& args) {
  const std::unique_ptr<Setup> setup = prepare(args);
  const WorkloadPlan& plan = setup->plan;
  SerialRows serial(setup->simulator);
  Pass plain = run_pass(plan, setup->simulator, args.dir, false);
  check_pass(plain, plan, setup->refs, setup->simulator, args.seed, serial);
  print_notes(plain, 0);
  std::printf("%s\n", pass_json(plain, plan, false).c_str());
  Pass traced = run_pass(plan, setup->simulator, args.dir, true);
  check_pass(traced, plan, setup->refs, setup->simulator, args.seed, serial);
  print_notes(traced, 1);
  std::printf("%s\n", pass_json(traced, plan, true).c_str());

  // The decorators must perturb nothing. A session that diverged from
  // serial in either pass (the known threaded budget-tail divergence) is
  // not comparable and is reported instead.
  bool checks_ok = true;
  for (std::size_t i = 0; i < plain.sessions.size(); ++i) {
    const SessionRun& a = plain.sessions[i];
    const SessionRun& b = traced.sessions[i];
    if (a.diverged || b.diverged) {
      std::printf("# %s: not compared (diverged from serial in %s)\n",
                  a.plan->key.c_str(),
                  a.diverged && b.diverged
                      ? "both passes"
                      : (a.diverged ? "the untraced pass" : "the traced pass"));
      continue;
    }
    if (a.digest != b.digest) {
      checks_ok = false;
      std::printf("# %s: FAILED traced digest %s != untraced %s\n",
                  a.plan->key.c_str(), fingerprint_hex(b.digest).c_str(),
                  fingerprint_hex(a.digest).c_str());
    }
  }

  LayerData data;
  {
    RunDir dir(args.dir);
    std::printf("# per-layer directory: filesystem %s\n",
                filesystem_type(dir.path()).c_str());
    // About kReplayRows rows in all, the same number from each session;
    // every other one of them for the per-configuration layer calls.
    const std::size_t limit =
        (kReplayRows + traced.sessions.size() - 1) / traced.sessions.size();
    for (const SessionRun& run : traced.sessions) {
      if (run.threw) continue;
      replay_session(run, setup->simulator, limit, 2, dir.path(), data);
    }
    sandbox_round_trips(plan.sessions.front(), setup->simulator, data);
  }
  const std::vector<int> left = live_children();
  if (!left.empty()) {
    std::printf("# FAILED: %zu child process(es) outlived the per-layer directory\n",
                left.size());
    checks_ok = false;
  }
  std::printf("%s\n", layers_json(layer_metrics(plan, traced, plain.wall_s, data),
                                  traced.wall_s / plain.wall_s, checks_ok)
                         .c_str());
  return 0;
}

int mode_reference() {
  const WorkloadPlan plan = make_plan("reference");
  const JvmSimulator simulator;
  for (const SessionPlan& sp : plan.sessions) {
    std::unique_ptr<SearchStrategy> strategy = make_strategy(sp.tuner);
    TuningSession session(simulator, sp.workload, serial_options(sp.options));
    const TuningOutcome outcome = session.run(*strategy);
    const std::vector<EvalRecord> rows = outcome.db->all();
    // Hierarchical sessions are strict (any difference fails the run),
    // so only the random sessions keep their tail rows.
    const std::size_t offset = sp.tuner == TunerKind::kRandom
                                   ? rows.size() - std::min(rows.size(), kTailRows)
                                   : rows.size();
    const std::string tail = offset < rows.size() ? encode_rows(rows, offset) : "-";
    std::printf("%s\t%s\t%zu\t%s\t%s\t%s\n", sp.key.c_str(),
                fingerprint_hex(trajectory_digest(rows)).c_str(), rows.size(),
                exact(outcome.improvement_frac()).c_str(),
                fingerprint_hex(trajectory_digest(rows, offset)).c_str(),
                tail.c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "setup") {
      const auto t0 = Clock::now();
      prepare(args);
      std::printf("{\"record\":\"setup\",\"setup_s\":%s}\n",
                  json_number(seconds_since(t0)).c_str());
      return 0;
    }
    if (args.mode == "run") return mode_run(args);
    if (args.mode == "trace") return mode_trace(args);
    if (args.mode == "reference") return mode_reference();
    throw std::runtime_error("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
