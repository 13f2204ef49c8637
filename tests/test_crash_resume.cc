// Crash/resume against the real cca_grid binary. A sweep is SIGKILLed (and
// separately SIGINTed) mid-flight, then resumed from its journal; the
// resumed CSV must be byte-identical to an uninterrupted serial run, because
// per-run seeds derive from (base_seed, cell, repeat) and journal payloads
// round-trip doubles exactly (%.17g). Figures 5-8 run the same sweep and
// resume it from one shared journal, so a second figure re-simulates
// nothing.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Small enough that the full grid takes seconds, large enough that a poll
// loop reliably catches the sweep mid-flight.
std::vector<std::string> grid_args(const std::string& csv_path) {
  return {CCA_GRID_PATH, "--bytes", "2000000",  "--repeats", "2",
          "--seed",      "7",       "--cache",  "",          "--csv",
          csv_path};
}

/// fork/exec with stdout+stderr captured to `log_path`, in directory `cwd`
/// when non-empty. No shell: empty arguments (--cache "") must survive
/// verbatim.
pid_t spawn(std::vector<std::string> args, const std::string& log_path,
            const std::string& cwd = "") {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    if (!cwd.empty() && ::chdir(cwd.c_str()) != 0) _exit(127);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Wait for the child with a deadline; on timeout, SIGKILL and fail.
int wait_for_exit(pid_t pid, int timeout_sec) {
  const auto deadline =
      // lint-allow: wall-clock (subprocess timeout; never feeds results)
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return status;
    // lint-allow: wall-clock (subprocess timeout; never feeds results)
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ADD_FAILURE() << "subprocess " << pid << " exceeded " << timeout_sec
                    << "s";
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int run_sync(const std::vector<std::string>& args, const std::string& log_path,
             const std::string& cwd = "", int timeout_sec = 240) {
  return wait_for_exit(spawn(args, log_path, cwd), timeout_sec);
}

std::size_t journal_entries(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t entries = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"task\":", 0) == 0) ++entries;
  }
  return entries;
}

/// Poll the journal until it holds at least `want` completed-cell entries.
/// Returns false if the child exits first (sweep finished too fast to be
/// interrupted — a test-environment problem, not a product one).
bool wait_for_entries(pid_t pid, const std::string& journal, std::size_t want,
                      int timeout_sec) {
  const auto deadline =
      // lint-allow: wall-clock (subprocess timeout; never feeds results)
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
  // lint-allow: wall-clock (subprocess timeout; never feeds results)
  while (std::chrono::steady_clock::now() < deadline) {
    if (journal_entries(journal) >= want) return true;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// The uninterrupted serial reference CSV, computed once per test binary.
const std::string& reference_csv() {
  static std::string contents;
  static std::once_flag once;
  std::call_once(once, [] {
    const std::string csv = temp_path("grid_reference.csv");
    const int status =
        run_sync(grid_args(csv), temp_path("grid_reference.log"));
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << read_file(temp_path("grid_reference.log"));
    contents = read_file(csv);
    ASSERT_GT(contents.size(), 100u);
  });
  return contents;
}

int parse_summary_count(const std::string& log, const char* key) {
  const auto pos = log.find(key);
  if (pos == std::string::npos) return -1;
  return std::atoi(log.c_str() + pos + std::strlen(key));
}

TEST(CrashResume, SigkillMidSweepThenResumeIsByteIdentical) {
  const std::string journal = temp_path("grid_kill_journal.jsonl");
  const std::string csv = temp_path("grid_kill.csv");
  std::remove(journal.c_str());

  auto args = grid_args(csv);
  args.insert(args.end(), {"--jobs", "2", "--journal", journal});
  const pid_t pid = spawn(args, temp_path("grid_kill.log"));
  // SIGKILL once at least two cells are journaled but (with dozens of
  // tasks pending) the sweep is far from done: the hard-crash case — no
  // handler runs, no flush beyond the per-append fsync.
  ASSERT_TRUE(wait_for_entries(pid, journal, 2, 120))
      << "sweep finished before it could be killed; raise --bytes";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const int status = wait_for_exit(pid, 60);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  const std::size_t survived = journal_entries(journal);
  EXPECT_GE(survived, 2u);

  auto resume_args = args;
  resume_args.push_back("--resume");
  const std::string resume_log = temp_path("grid_kill_resume.log");
  const int resume_status = run_sync(resume_args, resume_log);
  ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0)
      << read_file(resume_log);

  // The resume actually reused the journal rather than re-running the
  // sweep from scratch. A torn final line may drop one entry, never more.
  const std::string log = read_file(resume_log);
  const int resumed = parse_summary_count(log, "resumed=");
  EXPECT_GE(resumed, static_cast<int>(survived) - 1) << log;

  EXPECT_EQ(read_file(csv), reference_csv())
      << "resumed CSV differs from the uninterrupted serial run";
  std::remove(journal.c_str());
}

TEST(CrashResume, SigintFlushesJournalAndExitsPartial) {
  const std::string journal = temp_path("grid_int_journal.jsonl");
  const std::string csv = temp_path("grid_int.csv");
  std::remove(journal.c_str());

  auto args = grid_args(csv);
  args.insert(args.end(), {"--jobs", "2", "--journal", journal});
  const pid_t pid = spawn(args, temp_path("grid_int.log"));
  ASSERT_TRUE(wait_for_entries(pid, journal, 2, 120))
      << "sweep finished before it could be interrupted; raise --bytes";
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  const int status = wait_for_exit(pid, 120);

  // Graceful shutdown: normal exit with the partial-results code, not a
  // signal death, and the health summary says it was interrupted.
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 75);
  const std::string log = read_file(temp_path("grid_int.log"));
  EXPECT_NE(log.find("(interrupted)"), std::string::npos) << log;
  EXPECT_GE(journal_entries(journal), 2u);

  auto resume_args = args;
  resume_args.push_back("--resume");
  const std::string resume_log = temp_path("grid_int_resume.log");
  const int resume_status = run_sync(resume_args, resume_log);
  ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0)
      << read_file(resume_log);
  EXPECT_EQ(read_file(csv), reference_csv())
      << "resumed CSV differs from the uninterrupted serial run";
  std::remove(journal.c_str());
}

// Figures 5 and 6 in one fresh directory share the default journal
// cca_grid_journal.jsonl: fig5 measures the grid, fig6 replays every run
// and re-simulates nothing. Both read the grid back from the sweep CSV, so
// fig5's table must be exactly what cca_grid's CSV at the same flags says.
TEST(CrashResume, FiguresShareTheGridJournalAndMatchTheGridCsv) {
  const std::string dir = temp_path("figures");
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/cca_grid_journal.jsonl").c_str());
  const std::vector<std::string> flags = {"--bytes",   "2000000", "--repeats",
                                          "2",         "--seed",  "7"};
  auto figure = [&](const char* binary) {
    std::vector<std::string> args = {binary};
    args.insert(args.end(), flags.begin(), flags.end());
    return args;
  };

  const std::string fig5_log = temp_path("figures_fig5.log");
  const int fig5 = run_sync(figure(FIG5_PATH), fig5_log, dir);
  ASSERT_TRUE(WIFEXITED(fig5) && WEXITSTATUS(fig5) == 0) << read_file(fig5_log);

  const std::string fig6_log = temp_path("figures_fig6.log");
  const int fig6 = run_sync(figure(FIG6_PATH), fig6_log, dir);
  ASSERT_TRUE(WIFEXITED(fig6) && WEXITSTATUS(fig6) == 0) << read_file(fig6_log);

  const std::string grid_csv = dir + "/grid.csv";
  std::vector<std::string> grid = {CCA_GRID_PATH, "--csv", grid_csv};
  grid.insert(grid.end(), flags.begin(), flags.end());
  const std::string grid_log = temp_path("figures_grid.log");
  const int grid_status = run_sync(grid, grid_log);
  ASSERT_TRUE(WIFEXITED(grid_status) && WEXITSTATUS(grid_status) == 0)
      << read_file(grid_log);
  EXPECT_EQ(read_file(dir + "/cca_grid.csv"), read_file(grid_csv));

  // The expected fig5.csv, rendered from cca_grid's CSV the way the figure
  // renders its cells: kJ to 3 decimals and the stddev in J to 1.
  std::ifstream in(grid_csv);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  std::vector<std::string> ccas, mtus;
  std::map<std::pair<std::string, std::string>, std::string> energy;
  std::size_t cells = 0;
  while (std::getline(in, line)) {
    std::vector<std::string> field;
    std::stringstream row(line);
    for (std::string f; std::getline(row, f, ',');) field.push_back(f);
    ASSERT_EQ(field.size(), 7u) << line;
    if (std::find(ccas.begin(), ccas.end(), field[0]) == ccas.end()) {
      ccas.push_back(field[0]);
    }
    if (std::find(mtus.begin(), mtus.end(), field[1]) == mtus.end()) {
      mtus.push_back(field[1]);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f,%.1f",
                  std::strtod(field[2].c_str(), nullptr) / 1e3,
                  std::strtod(field[3].c_str(), nullptr));
    energy[{field[0], field[1]}] = buf;
    ++cells;
  }
  ASSERT_EQ(cells, 40u);
  std::string expected = "cca";
  for (const std::string& mtu : mtus) expected += ",mtu" + mtu + "[kJ],sd[J]";
  expected += "\n";
  for (const std::string& cca : ccas) {
    expected += cca;
    for (const std::string& mtu : mtus) expected += "," + energy[{cca, mtu}];
    expected += "\n";
  }
  EXPECT_EQ(read_file(dir + "/fig5.csv"), expected);

  const std::string log = read_file(fig6_log);
  EXPECT_EQ(parse_summary_count(log, "ok="), 0) << log;
  EXPECT_EQ(parse_summary_count(log, "resumed="), static_cast<int>(cells * 2))
      << log;
}

// A malformed memory budget is a usage error on every sweep bench, the
// figures included: exit 2 before anything runs.
TEST(CrashResume, FigureRejectsMalformedMemBudget) {
  const std::string dir = temp_path("bad_budget");
  ::mkdir(dir.c_str(), 0755);
  const std::string log = temp_path("bad_budget.log");
  const int status = run_sync({FIG5_PATH, "--bytes", "2000000", "--repeats",
                               "1", "--cell-mem-budget", "bogus"},
                              log, dir);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << read_file(log);
  EXPECT_NE(read_file(log).find("bad --cell-mem-budget"), std::string::npos);
}

}  // namespace
