// Property/fuzz sweep over the journal record dialect and its two on-disk
// consumers: the session journal reader and the cross-session result
// store. The contract under mutation is total: for ANY corruption of a
// valid file — random byte flips, truncation at every offset, duplicated
// lines — the reader must produce a clean load, a truncated-tail
// recovery, or a structured JournalError; it must never crash, hang, or
// silently return garbage. ~10k mutated cases run in ctest; every failure
// message carries the case seed, so a red run is reproducible with
//   JAT_FUZZ_SEED=<seed> ctest -R JournalFuzz
#include "harness/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>
#include <string>
#include <vector>

#include "harness/store.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/session.hpp"
#include "workloads/workload.hpp"

namespace jat {
namespace {

/// Tests in this binary run as separate ctest processes, possibly in
/// parallel; every scratch path is pid-suffixed so they never share files.
std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "jat_fuzz_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Base seed for the sweep: overridable from the environment so a red CI
/// run replays locally with the identical mutation sequence.
std::uint64_t base_seed() {
  if (const char* env = std::getenv("JAT_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x6a61745f66757a7aULL;  // "jat_fuzz"
}

/// One real journal, written by a real (small) session: meta record,
/// a few dozen eval records, an end record. A synthetic corpus would
/// drift from what sessions actually write.
std::string valid_journal_bytes() {
  static const std::string bytes = [] {
    set_log_level(LogLevel::kOff);
    const std::string path = scratch("corpus.jsonl");
    WorkloadSpec w;
    w.name = "fuzz-corpus";
    w.total_work = 300;
    w.startup_work = 60;
    w.startup_classes = 900;
    w.noise_sigma = 0.01;
    SessionOptions options;
    options.budget = SimTime::minutes(4);
    options.seed = 1234;
    JvmSimulator sim;
    SessionJournal journal = SessionJournal::create(path);
    options.journal = &journal;
    TuningSession session(sim, w, options);
    HillClimber tuner;
    session.run(tuner);
    journal.flush();
    return slurp(path);
  }();
  return bytes;
}

/// Baseline facts about the unmutated corpus, asserted once so the fuzz
/// properties below compare against a known-good load.
struct CorpusFacts {
  std::size_t bytes = 0;
  std::size_t committed = 0;
  bool ended = false;
};

CorpusFacts corpus_facts() {
  static const CorpusFacts facts = [] {
    const std::string path = scratch("facts.jsonl");
    spit(path, valid_journal_bytes());
    SessionJournal journal = SessionJournal::resume(path);
    CorpusFacts f;
    f.bytes = valid_journal_bytes().size();
    f.committed = journal.committed().size();
    f.ended = journal.ended();
    return f;
  }();
  return facts;
}

/// Every acceptable outcome of reading a mutated journal. Anything else
/// (a crash, another exception type, a hang caught by the ctest timeout)
/// fails the sweep.
enum class Outcome { kClean, kRecovered, kStructuredError };

Outcome read_mutated_journal(const std::string& bytes,
                             const std::string& path) {
  spit(path, bytes);
  try {
    SessionJournal journal = SessionJournal::resume(path);
    // The tolerant reader may only ever shorten the committed ledger
    // relative to the corpus (it truncates at the first bad record, and
    // a duplicated line either errors or is itself the bad record).
    EXPECT_LE(journal.committed().size(), corpus_facts().committed);
    return journal.dropped_records() == 0 && journal.warnings().empty()
               ? Outcome::kClean
               : Outcome::kRecovered;
  } catch (const JournalError&) {
    return Outcome::kStructuredError;
  }
  // Any other exception escapes and fails the test with its type.
}

class JournalFuzz : public ::testing::Test {
 protected:
  JournalFuzz() { set_log_level(LogLevel::kOff); }
};

// Truncation at EVERY byte offset: a torn tail (power cut mid-append) can
// land anywhere, including inside the meta record. Short prefixes lose
// the meta record -> JournalError; longer ones recover a prefix of the
// ledger; line-boundary cuts load clean.
TEST_F(JournalFuzz, TruncationAtEveryOffsetRecoversOrErrorsStructurally) {
  const std::string corpus = valid_journal_bytes();
  ASSERT_GT(corpus.size(), 1000u);
  const std::string path = scratch("trunc.jsonl");
  std::int64_t clean = 0, recovered = 0, structured = 0;
  for (std::size_t cut = 0; cut < corpus.size(); ++cut) {
    switch (read_mutated_journal(corpus.substr(0, cut), path)) {
      case Outcome::kClean: ++clean; break;
      case Outcome::kRecovered: ++recovered; break;
      case Outcome::kStructuredError: ++structured; break;
    }
    if (HasFailure()) {
      FAIL() << "truncation at offset " << cut << " of " << corpus.size();
    }
  }
  // All three outcomes must actually occur across the sweep — otherwise
  // the classification (and this test) is vacuous.
  EXPECT_GT(clean, 0);
  EXPECT_GT(recovered, 0);
  EXPECT_GT(structured, 0);
}

// Seeded random byte flips — the bulk of the 10k-case budget. Flips hit
// payload bytes, CRC hex digits, structural JSON characters, and
// newlines; every one must classify.
TEST_F(JournalFuzz, RandomByteFlipsNeverEscapeTheTolerantReader) {
  const std::string corpus = valid_journal_bytes();
  const std::string path = scratch("flip.jsonl");
  constexpr int kCases = 7000;
  std::int64_t structured = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = mix64(base_seed(), static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::string mutated = corpus;
    // 1..4 independent flips: single-bit, whole-byte, and zeroing.
    const int flips = static_cast<int>(rng.next_below(4)) + 1;
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated[at] = static_cast<char>(
              static_cast<unsigned char>(mutated[at]) ^
              (1u << rng.next_below(8)));
          break;
        case 1:
          mutated[at] = static_cast<char>(rng.next_below(256));
          break;
        default:
          mutated[at] = '\0';
          break;
      }
    }
    if (read_mutated_journal(mutated, path) == Outcome::kStructuredError) {
      ++structured;
    }
    if (HasFailure()) {
      FAIL() << "byte-flip case " << i << " failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
  // Flipping bytes must not usually destroy the whole journal: the meta
  // record is one line out of dozens.
  EXPECT_LT(structured, kCases / 2);
}

// Duplicated lines: a retried append or a copy-paste merge of two
// journals. Duplicate eval records are out-of-order sequence numbers —
// JournalError by contract, never silent double-application; a duplicated
// meta/end line must also classify.
TEST_F(JournalFuzz, DuplicatedLinesErrorOrTruncateNeverDoubleApply) {
  const std::string corpus = valid_journal_bytes();
  std::vector<std::string> lines;
  std::istringstream in(corpus);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 5u);
  const std::string path = scratch("dup.jsonl");

  constexpr int kCases = 1500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0xd0b1ed11ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::vector<std::string> mutated = lines;
    const std::size_t src = rng.next_below(mutated.size());
    const std::size_t dst = rng.next_below(mutated.size() + 1);
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(dst),
                   mutated[src]);
    std::string bytes;
    for (const std::string& line : mutated) bytes += line + "\n";
    read_mutated_journal(bytes, path);
    if (HasFailure()) {
      FAIL() << "duplicate-line case " << i << " (line " << src
             << " duplicated at " << dst << ") failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// The store shares the record dialect; its reader is *more* tolerant (a
// multi-writer file cannot truncate interior corruption away): open()
// must never throw on ANY mutation of a valid store file, and every
// record it does load must be well-formed enough to serve lookups.

std::string valid_store_bytes() {
  static const std::string bytes = [] {
    set_log_level(LogLevel::kOff);
    const std::string dir = scratch("store_corpus");
    std::filesystem::remove_all(dir);
    auto store = ResultStore::open(dir);
    WorkloadSpec w;
    w.name = "fuzz-store";
    w.total_work = 300;
    store->put_workload(42, w);
    for (int i = 0; i < 12; ++i) {
      StoreRecord r;
      r.key = {42, workload_fingerprint(w),
               static_cast<std::uint64_t>(i + 1), "run_time"};
      r.workload = w.name;
      r.command_line = "-XX:NewRatio=" + std::to_string(i % 9 + 1);
      r.objective_value = 1000.0 + i * 3.25;
      r.times_ms = {1000.0 + i, 1001.0 + i, 999.5 + i};
      MetricVector m;
      m[MetricId::kTotalTimeMs] = 1000.0 + i;
      r.rep_metrics = {m, m, m};
      r.seed = 7;
      store->put(r);
    }
    return slurp(dir + "/store.jsonl");
  }();
  return bytes;
}

class StoreFuzz : public ::testing::Test {
 protected:
  StoreFuzz() { set_log_level(LogLevel::kOff); }

  /// Writes `bytes` as a store file and opens it read-only; must never
  /// throw. Returns loaded/dropped counters for the distribution checks.
  StoreStats open_mutated(const std::string& bytes) {
    const std::string dir = scratch("store_case");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    spit(dir + "/store.jsonl", bytes);
    auto store = ResultStore::open(dir, {.read_only = true});
    return store->stats();
  }
};

TEST_F(StoreFuzz, TruncationAtEveryOffsetLoadsAPrefix) {
  const std::string corpus = valid_store_bytes();
  ASSERT_GT(corpus.size(), 500u);
  CorpusFacts unused = corpus_facts();  // keep journal corpus warm
  (void)unused;
  const StoreStats whole = open_mutated(corpus);
  for (std::size_t cut = 0; cut < corpus.size(); ++cut) {
    const StoreStats stats = open_mutated(corpus.substr(0, cut));
    EXPECT_LE(stats.records, whole.records) << "cut at " << cut;
    if (HasFailure()) FAIL() << "store truncation at offset " << cut;
  }
}

TEST_F(StoreFuzz, RandomByteFlipsNeverThrowOutOfOpen) {
  const std::string corpus = valid_store_bytes();
  const StoreStats whole = open_mutated(corpus);
  constexpr int kCases = 1500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x5701eULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::string mutated = corpus;
    const std::size_t at = rng.next_below(mutated.size());
    mutated[at] = static_cast<char>(rng.next_below(256));
    const StoreStats stats = open_mutated(mutated);
    // A single byte can kill at most the line it lives on (newline flips
    // can merge two lines: two records lost, one bad line counted).
    EXPECT_GE(stats.records, whole.records - 2) << "case " << i;
    EXPECT_LE(stats.records, whole.records) << "case " << i;
    if (HasFailure()) {
      FAIL() << "store byte-flip case " << i << " failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
}

}  // namespace
}  // namespace jat
