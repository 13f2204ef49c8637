// The benches' shared flag parser (bench/common.h): a numeric flag parses
// its whole token, and a value that does not parse exits 2 naming the flag
// instead of running a different experiment.

#include <gtest/gtest.h>

#include <vector>

#include "common.h"

namespace {

using greencc::bench::flag_double;
using greencc::bench::flag_i64;

/// argv for `args`, with a program name in front.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    storage.insert(storage.begin(), "bench");
    for (std::string& arg : storage) pointers.push_back(arg.data());
  }
  int argc() { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
};

TEST(BenchFlags, IntegerFlagAcceptsWholeExponentNotation) {
  Argv a({"--bytes", "5e7", "--repeats", "3", "--seed", "-2"});
  EXPECT_EQ(flag_i64(a.argc(), a.argv(), "--bytes", 1), 50'000'000);
  EXPECT_EQ(flag_i64(a.argc(), a.argv(), "--repeats", 1), 3);
  EXPECT_EQ(flag_i64(a.argc(), a.argv(), "--seed", 1), -2);
  EXPECT_EQ(flag_i64(a.argc(), a.argv(), "--jobs", 7), 7);  // absent

  Argv big({"--bytes", "9007199254740993"});  // above 2^53: stays exact
  EXPECT_EQ(flag_i64(big.argc(), big.argv(), "--bytes", 1),
            9'007'199'254'740'993);
}

TEST(BenchFlags, MalformedIntegerExitsTwoNamingTheFlag) {
  for (const char* bad : {"abc", "5e7x", "1.5", "", "1e30"}) {
    Argv a({"--bytes", bad});
    EXPECT_EXIT(flag_i64(a.argc(), a.argv(), "--bytes", 1),
                ::testing::ExitedWithCode(2), "bad value for --bytes")
        << bad;
  }
}

TEST(BenchFlags, DoubleFlagParsesWholeToken) {
  Argv a({"--horizon", "1.5", "--load", "0.7x"});
  EXPECT_DOUBLE_EQ(flag_double(a.argc(), a.argv(), "--horizon", 0.0), 1.5);
  EXPECT_EXIT(flag_double(a.argc(), a.argv(), "--load", 0.0),
              ::testing::ExitedWithCode(2), "bad value for --load");
}

}  // namespace
