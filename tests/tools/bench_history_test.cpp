// scripts/update_bench_history.py regression harness: the --check gate
// must pass-and-seed on a fresh or rotted history and on newly added
// bench rows, fail cleanly (no traceback exit) on unreadable inputs,
// and catch a real metric regression against each row's newest twin.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

const std::string kScript = std::string(LOTS_SOURCE_DIR) + "/scripts/update_bench_history.py";

int run(const std::string& cmd) {
  const int ret = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(ret) ? WEXITSTATUS(ret) : -1;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  ASSERT_TRUE(f.good()) << path;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

class BenchHistoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (run("python3 --version") != 0) GTEST_SKIP() << "python3 not available";
    dir_ = ::testing::TempDir() + "bench_history_XXXXXX";
    ASSERT_NE(mkdtemp(dir_.data()), nullptr);
    history_ = dir_ + "/BENCH_history.json";
    input_ = dir_ + "/bench.out";
  }

  int check(const std::string& extra_inputs = "") {
    return run("python3 " + kScript + " --sha test --history " + history_ + " --check " +
               input_ + extra_inputs);
  }

  std::string dir_, history_, input_;
};

TEST_F(BenchHistoryTest, FreshHistorySeedsAndPasses) {
  write_file(input_,
             "noise line\n"
             "BENCH_JSON {\"bench\":\"kv\",\"label\":\"zipf\",\"qps\":100.0}\n"
             "BENCH_JSON not-even-json\n"
             "BENCH_JSON [\"a\",\"non\",\"dict\",\"row\"]\n");
  EXPECT_EQ(check(), 0);  // no history file at all: pass and seed
  EXPECT_NE(slurp(history_).find("\"qps\""), std::string::npos);

  write_file(history_, "");  // empty file (a truncated artifact)
  EXPECT_EQ(check(), 0);

  write_file(history_, "[\"not-a-dict-entry\"]");  // rotted last entry
  EXPECT_EQ(check(), 0);

  write_file(history_, "[{\"sha\":\"old\",\"rows\":[\"rotted-row\", 42]}]");
  EXPECT_EQ(check(), 0);  // non-dict rows inside an entry must not crash
}

TEST_F(BenchHistoryTest, NewRowsPassSilentlyAndRegressionsFail) {
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"label\":\"zipf\",\"qps\":100.0}\n");
  ASSERT_EQ(check(), 0);  // seeds the baseline

  // A brand-new row identity alongside the old one: still passes.
  write_file(input_,
             "BENCH_JSON {\"bench\":\"kv\",\"label\":\"zipf\",\"qps\":99.0}\n"
             "BENCH_JSON {\"bench\":\"abl_migration\",\"shape\":\"skew\",\"qps\":1.0}\n");
  EXPECT_EQ(check(), 0);

  // >25% drop on a higher-is-better metric: the gate must trip.
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"label\":\"zipf\",\"qps\":50.0}\n");
  EXPECT_EQ(check(), 2);
}

TEST_F(BenchHistoryTest, EachRowComparesWithItsNewestTwin) {
  // The newest entry did not measure kv: its older twin still gates it.
  write_file(history_,
             "[{\"sha\":\"a\",\"rows\":[{\"bench\":\"kv\",\"qps\":100.0}]},"
             " {\"sha\":\"b\",\"rows\":[{\"bench\":\"net\",\"qps\":10.0}]}]");
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"qps\":50.0}\n");
  EXPECT_EQ(check(), 2);

  // Two twins: the newer one is the baseline, not the older one.
  write_file(history_,
             "[{\"sha\":\"a\",\"rows\":[{\"bench\":\"kv\",\"qps\":100.0}]},"
             " {\"sha\":\"b\",\"rows\":[{\"bench\":\"kv\",\"qps\":60.0}]},"
             " \"rotted-entry\"]");
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"qps\":55.0}\n");
  EXPECT_EQ(check(), 0);

  // perfbench rows (scripts/bench_ledger.sh) gate ops_per_s and the p50s,
  // and a different run length is a different row.
  write_file(history_,
             "[{\"sha\":\"a\",\"rows\":[{\"bench\":\"perfbench\",\"workload\":\"sor\","
             "\"seconds\":20,\"ops_per_s\":100.0,\"write_p50_us\":10.0}]}]");
  write_file(input_,
             "BENCH_JSON {\"bench\":\"perfbench\",\"workload\":\"sor\",\"seconds\":5,"
             "\"ops_per_s\":10.0}\n");
  EXPECT_EQ(check(), 0);
  write_file(input_,
             "BENCH_JSON {\"bench\":\"perfbench\",\"workload\":\"sor\",\"seconds\":20,"
             "\"ops_per_s\":100.0,\"write_p50_us\":20.0}\n");
  EXPECT_EQ(check(), 2);

  // A ledger row ("host": "ledger") is never the twin of a CI row of the
  // same bench, however much faster the ledger host was.
  write_file(history_,
             "[{\"sha\":\"a\",\"rows\":[{\"bench\":\"kv\",\"qps\":100.0}]},"
             " {\"sha\":\"b\",\"rows\":[{\"bench\":\"kv\",\"host\":\"ledger\","
             "\"qps\":1000.0}]}]");
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"qps\":90.0}\n");
  EXPECT_EQ(check(), 0);
  write_file(input_, "BENCH_JSON {\"bench\":\"kv\",\"host\":\"ledger\",\"qps\":90.0}\n");
  EXPECT_EQ(check(), 2);
}

TEST_F(BenchHistoryTest, PerfbenchPeakRssRiseFails) {
  // peak_rss_mb is lower-is-better: against a 60 MB twin, a >25% rise
  // trips the gate; a rise within the bound or a fall passes. (Each check
  // appends its entry, so the baseline is rewritten before each one.)
  const std::string ledger_row =
      "{\"bench\":\"perfbench\",\"workload\":\"largespace\",\"seconds\":20,"
      "\"host\":\"ledger\",\"peak_rss_mb\":";
  auto check_rss = [&](const std::string& mb) {
    write_file(history_, "[{\"sha\":\"a\",\"rows\":[" + ledger_row + "60.0}]}]");
    write_file(input_, "BENCH_JSON " + ledger_row + mb + "}\n");
    return check();
  };
  EXPECT_EQ(check_rss("80.0"), 2);
  EXPECT_EQ(check_rss("70.0"), 0);
  EXPECT_EQ(check_rss("30.0"), 0);
}

TEST_F(BenchHistoryTest, MissingInputFailsCleanly) {
  // Exit 1 (our diagnosis), not an uncaught-traceback exit.
  EXPECT_EQ(run("python3 " + kScript + " --history " + history_ + " --check " + dir_ +
                "/does_not_exist.out"),
            1);
}

}  // namespace
